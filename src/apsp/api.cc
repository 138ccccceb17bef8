#include "apsp/api.h"

#include <memory>
#include <string>
#include <utility>

#include "apsp/solver.h"
#include "apsp/solvers/ksource_blocked.h"
#include "common/math_utils.h"

namespace apspark::apsp {

namespace {

/// Checks a request against an n-vertex problem decomposed with block size
/// `block_size`, once, before anything is built from it.
Status Validate(std::int64_t n, std::int64_t block_size,
                const SolveRequest& request) {
  if (n <= 0) {
    return InvalidArgumentError("solve: the graph has no vertices");
  }
  if (block_size <= 0) {
    return InvalidArgumentError("solve: block size must be > 0, got " +
                                std::to_string(block_size));
  }
  if (!request.sources.has_value()) return Status::Ok();
  if (request.sources->empty()) {
    return InvalidArgumentError("ksource: no sources given");
  }
  for (const graph::VertexId s : *request.sources) {
    if (s < 0 || s >= n) {
      return InvalidArgumentError("ksource: source " + std::to_string(s) +
                                  " out of range");
    }
  }
  if (request.options.start_round != 0) {
    return InvalidArgumentError(
        "ksource: start_round resume is not supported (the frontier is "
        "rebuilt from the sources)");
  }
  return Status::Ok();
}

SolveReport Identify(const SolveRequest& request) {
  SolveReport report;
  if (request.sources.has_value()) {
    report.solver_name = "Ksource-Blocked";
    report.pure = KsourceVariantPure(request.options.variant);
  } else {
    report.solver_name = SolverKindName(request.solver);
    report.pure = SolverKindPure(request.solver);
  }
  return report;
}

SolveReport Rejected(const SolveRequest& request, Status status) {
  SolveReport report = Identify(request);
  report.run.status = std::move(status);
  return report;
}

/// Boolean APSP solves run on the bit-packed plane; KSSP panels mix with
/// matrix blocks every pivot, so its blocks stay dense.
bool Packed(const SolveRequest& request) {
  return !request.sources.has_value() &&
         request.options.semiring == linalg::SemiringId::kBoolean &&
         request.options.bitpack_boolean;
}

}  // namespace

const char* SolverKindName(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::kRepeatedSquaring:
      return "Repeated Squaring";
    case SolverKind::kFloydWarshall2d:
      return "2D Floyd-Warshall";
    case SolverKind::kBlockedInMemory:
      return "Blocked-IM";
    case SolverKind::kBlockedCollectBroadcast:
      return "Blocked-CB";
  }
  return "?";
}

bool SolverKindPure(SolverKind kind) noexcept {
  return kind == SolverKind::kFloydWarshall2d ||
         kind == SolverKind::kBlockedInMemory;
}

std::int64_t SolverKindRounds(SolverKind kind, const BlockLayout& layout) {
  switch (kind) {
    case SolverKind::kRepeatedSquaring:
      // One round per column sweep: ceil(log2 n) squarings of q sweeps.
      return static_cast<std::int64_t>(CeilLog2(layout.n())) * layout.q();
    case SolverKind::kFloydWarshall2d:
      return layout.n();
    case SolverKind::kBlockedInMemory:
    case SolverKind::kBlockedCollectBroadcast:
      return layout.q();
  }
  return 0;
}

std::vector<SolverKind> AllSolverKinds() {
  return {SolverKind::kRepeatedSquaring, SolverKind::kFloydWarshall2d,
          SolverKind::kBlockedInMemory, SolverKind::kBlockedCollectBroadcast};
}

const char* KsourceVariantName(KsourceVariant variant) noexcept {
  switch (variant) {
    case KsourceVariant::kStagedStorage:
      return "staged";
    case KsourceVariant::kShuffleReplicated:
      return "shuffle";
  }
  return "?";
}

std::optional<KsourceVariant> ParseKsourceVariant(std::string_view name) {
  if (name == "staged") return KsourceVariant::kStagedStorage;
  if (name == "shuffle") return KsourceVariant::kShuffleReplicated;
  return std::nullopt;
}

bool KsourceVariantPure(KsourceVariant variant) noexcept {
  return variant == KsourceVariant::kShuffleReplicated;
}

SolveReport Solve(const graph::Graph& graph, const SolveRequest& request) {
  const std::int64_t n = graph.num_vertices();
  Status valid = Validate(n, request.options.block_size, request);
  if (!valid.ok()) return Rejected(request, std::move(valid));
  const bool directed = request.options.directed || graph.directed();
  const BlockLayout layout(n, request.options.block_size, directed);
  linalg::DenseBlock adjacency = graph.ToDenseAdjacency();
  // The KSSP sweep computes F = A* ⊗ F_0, i.e. distances *to* the frontier
  // columns; sweeping the reversed graph roots them at the sources instead.
  if (request.sources.has_value() && directed) {
    adjacency = adjacency.Transposed();
  }
  // Ingest into the requested algebra: the graph's canonical min-plus
  // adjacency becomes the semiring's matrix (bit-packed for boolean APSP).
  adjacency = linalg::SemiringAdjacency(
      std::move(adjacency), request.options.semiring, Packed(request));
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  return Solve(ctx, layout, layout.Decompose(adjacency), request);
}

SolveReport SolveModel(std::int64_t n, const SolveRequest& request) {
  Status valid = Validate(n, request.options.block_size, request);
  if (!valid.ok()) return Rejected(request, std::move(valid));
  const BlockLayout layout(n, request.options.block_size,
                           request.options.directed);
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  return Solve(ctx, layout, layout.DecomposePhantom(Packed(request)),
               request);
}

SolveReport Solve(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                  const std::vector<BlockRecord>& blocks,
                  const SolveRequest& request) {
  Status valid = Validate(layout.n(), layout.block_size(), request);
  if (!valid.ok()) return Rejected(request, std::move(valid));
  const bool phantom = !blocks.empty() && blocks.front().second->is_phantom();
  const std::unique_ptr<Workload> workload =
      request.sources.has_value()
          ? MakeKsourceWorkload(ctx, layout, blocks, *request.sources,
                                request.options, phantom)
          : MakeApspWorkload(request.solver, ctx, layout, blocks,
                             request.options);
  SolveReport report = Identify(request);
  report.run = RunSolve(ctx, layout, request.options, *workload, phantom);
  return report;
}

}  // namespace apspark::apsp
