// The public solve surface: one request type, one report type, one entry
// point per run mode, for APSP and for k-source shortest paths (KSSP).
//
//   SolveRequest — everything one solve needs: which solver, the workload
//     options, the optional KSSP source set, the cluster and the cost model.
//     Setting `sources` turns the request into a KSSP solve on the
//     `options.variant` data plane; `solver` then plays no part.
//   SolveReport — the run payload plus the identity of what produced it.
//
//   Solve(graph, request)       — full-fidelity run on real data.
//   SolveModel(n, request)      — paper-scale phantom run (no payloads).
//   Solve(ctx, layout, blocks, request) — the same run on a caller-owned
//     context, for engine-level work: fault injection, checkpoint resume,
//     multi-tenant stage traces.
//
// Malformed requests (no vertices, block size <= 0, an empty or out-of-range
// source set) come back as INVALID_ARGUMENT reports; nothing throws.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apsp/block_key.h"
#include "apsp/block_layout.h"
#include "apsp/partitioners.h"
#include "graph/graph.h"
#include "linalg/cost_model.h"
#include "linalg/semiring.h"
#include "sparklet/config.h"
#include "sparklet/fault.h"
#include "sparklet/rdd.h"

namespace apspark::apsp {

/// The paper's four APSP solvers (§4).
enum class SolverKind {
  kRepeatedSquaring,        // Alg. 1 (impure: shared-FS column staging)
  kFloydWarshall2d,         // Alg. 2 (pure)
  kBlockedInMemory,         // Alg. 3 (pure)
  kBlockedCollectBroadcast, // Alg. 4 (impure)
};

const char* SolverKindName(SolverKind kind) noexcept;
/// Pure solvers rely only on fault-tolerant Spark functionality; impure
/// ones stage data in shared persistent storage (§3).
bool SolverKindPure(SolverKind kind) noexcept;
/// Rounds a full run of `kind` takes on `layout` (paper Table 2).
std::int64_t SolverKindRounds(SolverKind kind, const BlockLayout& layout);
std::vector<SolverKind> AllSolverKinds();

/// How pivot data moves between stages of the KSSP sweep (see
/// apsp/solvers/ksource_blocked.h): staged through shared storage (impure)
/// or replicated through the shuffle (pure).
enum class KsourceVariant {
  kStagedStorage,
  kShuffleReplicated,
};

const char* KsourceVariantName(KsourceVariant variant) noexcept;
std::optional<KsourceVariant> ParseKsourceVariant(std::string_view name);
bool KsourceVariantPure(KsourceVariant variant) noexcept;

struct ApspOptions {
  /// Decomposition parameter b; q = ceil(n/b).
  std::int64_t block_size = 256;
  /// Semiring the solve evaluates (see linalg/semiring.h). Solve converts
  /// the canonical min-plus adjacency into this algebra's matrix (boolean
  /// reachability, max-min capacities, max-times reliabilities via 2^-w);
  /// the result is in the semiring's value domain.
  linalg::SemiringId semiring = linalg::SemiringId::kMinPlus;
  /// Boolean APSP solves use the bit-packed block plane (64 vertices per
  /// word) unless disabled. KSSP panels always stay dense.
  bool bitpack_boolean = true;
  PartitionerKind partitioner = PartitionerKind::kMultiDiagonal;
  /// Spark's over-decomposition factor B: RDD partitions per core (§5.3).
  int partitions_per_core = 2;
  /// 0 = run to completion. Otherwise simulate this many rounds and project
  /// (a "round" is one column sweep for Repeated Squaring, one k step for 2D
  /// Floyd-Warshall, one diagonal iteration for the blocked methods and one
  /// pivot for KSSP).
  std::int64_t max_rounds = 0;
  bool directed = false;
  /// Resume support: skip rounds [0, start_round) — the caller provides the
  /// matching checkpointed blocks through the context entry point. APSP only.
  std::int64_t start_round = 0;
  /// KSSP data plane (CLI: --ksource-variant staged|shuffle).
  KsourceVariant variant = KsourceVariant::kStagedStorage;
  /// KSSP early-exit pivot sweep for annihilator-heavy graphs (see
  /// apsp/solvers/ksource_blocked.h). The detection scan charges the same on
  /// real and phantom runs; only real runs can skip, so disable this when
  /// comparing a disconnected real run against its phantom projection.
  bool early_exit_infinite = true;
  /// Durability extension: checkpoint solver state to shared storage every
  /// this many rounds (0 = off); see apsp/checkpoint.h. Honored by the
  /// impure planes; pure ones recover through lineage.
  std::int64_t checkpoint_every = 0;
  /// Fault injection: executor losses to arm before the run (fired by the
  /// engine at stage boundaries; see sparklet::FaultInjector::FailNode).
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
  /// Correlated failures: whole racks lost at a stage boundary.
  std::vector<sparklet::RackFailurePlan> fail_racks;
  /// Elastic membership: replacement nodes joining at these stage
  /// boundaries (see sparklet::FaultInjector::AddNode).
  std::vector<std::int64_t> add_nodes;
  /// Checkpoint restarts an impure run may attempt after executor losses
  /// before giving up and surfacing DATA_LOSS.
  int max_restarts = 3;
};

struct ApspRunResult {
  Status status;  // OK, or why the run stopped (e.g. storage exhausted)

  /// Completed real-data runs only. APSP: the n x n distance matrix. KSSP:
  /// the n x k panel, distances->At(v, j) = dist(sources[j] -> v).
  std::optional<linalg::DenseBlock> distances;

  sparklet::SimMetrics metrics;
  double sim_seconds = 0;  // modelled time of the executed rounds
  std::int64_t rounds_executed = 0;
  std::int64_t rounds_total = 0;
  /// sim_seconds scaled to all rounds (equals sim_seconds for full runs).
  double projected_seconds = 0;

  std::uint64_t spill_peak_bytes = 0;  // per-node local-storage high water
  double projected_spill_bytes = 0;    // extrapolated over all rounds
  /// True when the extrapolated spill exceeds per-node capacity: the solver
  /// would die before finishing (paper Table 3: Blocked-IM at p = 1024).
  bool projected_storage_exceeded = false;

  /// Membership plans (fail_nodes / fail_racks / add_nodes) whose stage lay
  /// past the job's end, e.g. "node 1 at stage 40"; disarmed on return.
  std::vector<std::string> unfired_plans;

  double SecondsPerRound() const noexcept {
    return rounds_executed > 0
               ? sim_seconds / static_cast<double>(rounds_executed)
               : 0.0;
  }
};

struct SolveRequest {
  SolverKind solver = SolverKind::kBlockedCollectBroadcast;
  ApspOptions options;
  /// Set: a KSSP solve from these vertices (duplicates allowed, so k may
  /// exceed n). SolveModel only uses their count.
  std::optional<std::vector<graph::VertexId>> sources;
  sparklet::ClusterConfig cluster = sparklet::ClusterConfig::TinyTest();
  linalg::CostModel cost_model;
};

struct SolveReport {
  /// Name of what ran (e.g. "Blocked-CB", "Ksource-Blocked").
  std::string solver_name;
  /// Whether the run relied only on fault-tolerant Spark functionality.
  bool pure = false;
  /// The full run payload (status, distances, metrics, projections).
  ApspRunResult run;

  bool ok() const noexcept { return run.status.ok(); }
  const Status& status() const noexcept { return run.status; }
  const sparklet::SimMetrics& metrics() const noexcept { return run.metrics; }
  const std::optional<linalg::DenseBlock>& distances() const noexcept {
    return run.distances;
  }
};

/// Full-fidelity solve of `graph` per `request`.
SolveReport Solve(const graph::Graph& graph, const SolveRequest& request);

/// Paper-scale model run on phantom blocks (no numeric payload).
SolveReport SolveModel(std::int64_t n, const SolveRequest& request);

/// The run on a caller-owned context. `blocks` is the matrix decomposed for
/// `layout` (real or phantom, already in the request's algebra and, for a
/// directed KSSP solve, transposed); the KSSP frontier is built from
/// `request.sources`. The request's cluster and cost model are the
/// context's, so they are not read here.
SolveReport Solve(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                  const std::vector<BlockRecord>& blocks,
                  const SolveRequest& request);

}  // namespace apspark::apsp
