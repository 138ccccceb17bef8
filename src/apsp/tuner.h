// Block-size / solver / partitioner autotuner.
//
// §4 of the paper says b is "a user-provided (or auto-tuned) decomposition
// parameter"; §5.2-5.3 spend two sections on how to choose it. This module
// automates that choice: it sweeps candidate configurations in phantom mode
// on the virtual cluster (one simulated round each, projected — seconds of
// wall time), discards configurations whose projected shuffle spill would
// overflow local storage, and returns the fastest remaining one.
#pragma once

#include <vector>

#include "apsp/api.h"

namespace apspark::apsp {

struct TuneRequest {
  std::int64_t n = 0;
  sparklet::ClusterConfig cluster;
  /// Candidates; empty selects a geometric sweep 512..4096 clipped to n.
  std::vector<std::int64_t> block_sizes;
  /// Solvers to consider; empty = the two blocked methods (the only ones
  /// the paper finds viable at scale).
  std::vector<SolverKind> solvers;
  /// Restrict to pure (fault-tolerant) solvers.
  bool require_fault_tolerance = false;
  bool directed = false;
};

struct TuneEntry {
  SolverKind solver;
  std::int64_t block_size = 0;
  PartitionerKind partitioner = PartitionerKind::kMultiDiagonal;
  double projected_seconds = 0;
  double projected_spill_bytes = 0;
  bool feasible = false;  // storage fits and the simulated round succeeded
};

/// All swept configurations, best-first (infeasible entries last).
std::vector<TuneEntry> SweepConfigurations(const TuneRequest& request);

/// The recommended configuration, or NOT_FOUND if nothing is feasible.
Result<TuneEntry> TuneConfiguration(const TuneRequest& request);

/// Applies a tuning choice to solver options.
ApspOptions ToOptions(const TuneEntry& entry, bool directed = false);

// ---------------------------------------------------------------------------
// Adaptive KSSP variant chooser
// ---------------------------------------------------------------------------
//
// The k-source sweep has two data planes (see apsp/solvers/ksource_blocked.h):
// staged shared-storage (impure; cost dominated by shared-FS bandwidth and
// per-file overhead) and shuffle-replicated (pure; cost dominated by network
// shuffle volume). Which wins depends on the modelled cluster — a fat GPFS
// favors staging, a slow one (or a fast fabric) favors the shuffle. The
// chooser runs one phantom pivot per variant on the virtual cluster and
// picks the smaller projected sweep time, the same methodology as the
// block-size tuner above.

struct KsourceTuneRequest {
  std::int64_t n = 0;
  std::int64_t num_sources = 0;
  std::int64_t block_size = 1024;
  sparklet::ClusterConfig cluster;
  bool directed = false;
  /// Restrict to pure (fault-tolerant) data planes: always picks shuffle.
  bool require_fault_tolerance = false;
};

struct KsourceTuneEntry {
  KsourceVariant variant = KsourceVariant::kStagedStorage;
  double projected_seconds = 0;
  bool feasible = false;
};

/// Both variants' modelled sweeps, best-first (infeasible entries last).
std::vector<KsourceTuneEntry> SweepKsourceVariants(
    const KsourceTuneRequest& request);

/// The recommended data plane, or an error when nothing is feasible.
Result<KsourceVariant> ChooseKsourceVariant(const KsourceTuneRequest& request);

}  // namespace apspark::apsp
