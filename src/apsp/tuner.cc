#include "apsp/tuner.h"

#include <algorithm>

namespace apspark::apsp {

std::vector<TuneEntry> SweepConfigurations(const TuneRequest& request) {
  std::vector<std::int64_t> block_sizes = request.block_sizes;
  if (block_sizes.empty()) {
    for (std::int64_t b = 512; b <= 4096; b *= 2) block_sizes.push_back(b);
    block_sizes.push_back(1536);
    block_sizes.push_back(3072);
  }
  std::sort(block_sizes.begin(), block_sizes.end());
  block_sizes.erase(std::unique(block_sizes.begin(), block_sizes.end()),
                    block_sizes.end());

  std::vector<SolverKind> solvers = request.solvers;
  if (solvers.empty()) {
    solvers = {SolverKind::kBlockedInMemory,
               SolverKind::kBlockedCollectBroadcast};
  }

  std::vector<TuneEntry> entries;
  for (SolverKind kind : solvers) {
    if (request.require_fault_tolerance && !SolverKindPure(kind)) continue;
    for (std::int64_t b : block_sizes) {
      if (b <= 0 || b >= request.n) continue;
      for (PartitionerKind part : {PartitionerKind::kMultiDiagonal,
                                   PartitionerKind::kPortableHash}) {
        SolveRequest model;
        model.solver = kind;
        model.cluster = request.cluster;
        model.options.block_size = b;
        model.options.partitioner = part;
        model.options.max_rounds = 1;
        model.options.directed = request.directed;
        const ApspRunResult run = SolveModel(request.n, model).run;
        TuneEntry entry;
        entry.solver = kind;
        entry.block_size = b;
        entry.partitioner = part;
        entry.projected_seconds = run.projected_seconds;
        entry.projected_spill_bytes = run.projected_spill_bytes;
        entry.feasible =
            run.status.ok() && !run.projected_storage_exceeded;
        entries.push_back(entry);
      }
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TuneEntry& a, const TuneEntry& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.projected_seconds < b.projected_seconds;
                   });
  return entries;
}

Result<TuneEntry> TuneConfiguration(const TuneRequest& request) {
  if (request.n <= 1) {
    return InvalidArgumentError("tuner: n must be > 1");
  }
  const auto entries = SweepConfigurations(request);
  for (const TuneEntry& entry : entries) {
    if (entry.feasible) return entry;
  }
  return NotFoundError(
      "no feasible configuration: every candidate exhausts local storage");
}

ApspOptions ToOptions(const TuneEntry& entry, bool directed) {
  ApspOptions options;
  options.block_size = entry.block_size;
  options.partitioner = entry.partitioner;
  options.directed = directed;
  return options;
}

std::vector<KsourceTuneEntry> SweepKsourceVariants(
    const KsourceTuneRequest& request) {
  std::vector<KsourceVariant> variants;
  if (!request.require_fault_tolerance) {
    variants.push_back(KsourceVariant::kStagedStorage);
  }
  variants.push_back(KsourceVariant::kShuffleReplicated);

  std::vector<KsourceTuneEntry> entries;
  for (const KsourceVariant variant : variants) {
    SolveRequest model;
    model.sources = std::vector<graph::VertexId>(static_cast<std::size_t>(
        std::max<std::int64_t>(0, request.num_sources)));
    model.cluster = request.cluster;
    model.options.block_size = request.block_size;
    model.options.variant = variant;
    model.options.max_rounds = 1;  // one phantom pivot, projected to the sweep
    model.options.directed = request.directed;
    const ApspRunResult run = SolveModel(request.n, model).run;
    KsourceTuneEntry entry;
    entry.variant = variant;
    entry.projected_seconds = run.projected_seconds;
    entry.feasible = run.status.ok();
    entries.push_back(entry);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const KsourceTuneEntry& a, const KsourceTuneEntry& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.projected_seconds < b.projected_seconds;
                   });
  return entries;
}

Result<KsourceVariant> ChooseKsourceVariant(const KsourceTuneRequest& request) {
  if (request.n <= 1) {
    return InvalidArgumentError("ksource tuner: n must be > 1");
  }
  if (request.num_sources <= 0) {
    return InvalidArgumentError("ksource tuner: num_sources must be > 0");
  }
  if (request.block_size <= 0 || request.block_size > request.n) {
    return InvalidArgumentError(
        "ksource tuner: block_size must be in (0, n]");
  }
  const auto entries = SweepKsourceVariants(request);
  for (const KsourceTuneEntry& entry : entries) {
    if (entry.feasible) return entry.variant;
  }
  return NotFoundError("ksource tuner: no feasible data plane");
}

}  // namespace apspark::apsp
