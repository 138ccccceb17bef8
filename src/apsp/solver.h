// Internal solve machinery behind apsp/api.h.
//
// Every workload runs the same driver, RunSolve: arm the injected faults and
// membership changes, mark the durable start, sweep the rounds, restart from
// the latest checkpoint after a recoverable loss, collect for assembly, and
// project the result. What differs per workload is a small Workload
// strategy: the round count, the input RDDs and how to reseed them on a
// restart, the rounds body, and assembly.
//
// APSP plugs in the four paper solvers (§4) as ApspWorkload subclasses,
// each supplying its rounds body:
//   RepeatedSquaringSolver        — Alg. 1 (impure: shared-FS column staging)
//   FloydWarshall2dSolver         — Alg. 2 (pure)
//   BlockedInMemorySolver         — Alg. 3 (pure)
//   BlockedCollectBroadcastSolver — Alg. 4 (impure)
// KSSP (apsp/solvers/ksource_blocked.h) is the same blocked sweep over a
// rectangular frontier panel and supplies the second Workload.
//
// Model runs use phantom blocks: the complete engine control path
// (partitioning, shuffles, storage accounting) without payloads. With
// options.max_rounds > 0 only the first rounds run and the total is
// projected, the methodology of the paper's Table 2 ("Single" vs
// "Projected").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "apsp/checkpoint.h"
#include "obs/trace.h"

namespace apspark::apsp {

/// RAII sim-clock span around one solver round: records a "round" span on
/// the virtual driver lane covering every stage and transfer the round's
/// body charges to the cluster. A no-op (two relaxed loads) without an
/// active trace capture; purely observational either way.
class RoundSpanScope {
 public:
  RoundSpanScope(sparklet::VirtualCluster& cluster, std::int64_t round)
      : cluster_(cluster),
        round_(round),
        start_(cluster.now_seconds()),
        active_(obs::TraceEnabled()) {}
  ~RoundSpanScope() {
    if (active_ && obs::TraceEnabled()) {
      obs::Tracer::Get().VirtualSpan("round", obs::kDriverLane, start_,
                                     cluster_.now_seconds(),
                                     "\"round\":" + std::to_string(round_));
    }
  }
  RoundSpanScope(const RoundSpanScope&) = delete;
  RoundSpanScope& operator=(const RoundSpanScope&) = delete;

 private:
  sparklet::VirtualCluster& cluster_;
  std::int64_t round_;
  double start_;
  bool active_;
};

/// What one workload contributes to RunSolve.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual std::int64_t TotalRounds() const = 0;

  /// (Re)populates the input RDDs: from the stable inputs when `checkpoint`
  /// is null, else from it. `tag` suffixes the RDD names on restarts.
  virtual void Seed(sparklet::SparkletContext& ctx,
                    const CheckpointInfo* checkpoint,
                    const std::string& tag) = 0;

  /// Runs rounds [first, end). Throws SparkletAbort on modelled failures.
  virtual void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                         std::int64_t end) = 0;

  /// Rounds completed so far, for a run that fails mid-sweep to report how
  /// far it got. Workloads that do not track per-round progress report 0.
  virtual std::int64_t RoundsDone() const { return 0; }

  /// Collects the final state on the driver and assembles the distances.
  virtual Result<linalg::DenseBlock> CollectDistances() = 0;

  /// Whether the assembly collect's memory high water joins the reported
  /// metrics (KSSP: the pure plane's only driver-resident spike) or stays
  /// out of them like its time does (APSP).
  virtual bool ReportsAssemblyPeak() const = 0;
};

/// The APSP workload. The base seeds the block RDD A, holds the block
/// partitioner and assembles the final blocks; each of the four paper
/// solvers subclasses it with its rounds body, which sweeps from a_ and
/// leaves the final block RDD in final_. `layout`, `blocks` and `opts` must
/// outlive it (restarts reseed from `blocks`).
class ApspWorkload : public Workload {
 public:
  ApspWorkload(SolverKind kind, sparklet::SparkletContext& ctx,
               const BlockLayout& layout,
               const std::vector<BlockRecord>& blocks,
               const ApspOptions& opts);

  std::int64_t TotalRounds() const override;
  void Seed(sparklet::SparkletContext& ctx, const CheckpointInfo* checkpoint,
            const std::string& tag) override;
  Result<linalg::DenseBlock> CollectDistances() override;
  bool ReportsAssemblyPeak() const override { return false; }

 protected:
  const SolverKind kind_;
  const BlockLayout& layout_;
  const std::vector<BlockRecord>& blocks_;
  const ApspOptions& opts_;
  const sparklet::PartitionerPtr<BlockKey> partitioner_;
  sparklet::RddPtr<BlockRecord> a_;
  sparklet::RddPtr<BlockRecord> final_;
};

/// Partitions a run's RDDs use: partitions_per_core per modelled core.
int NumPartitions(const sparklet::SparkletContext& ctx,
                  const ApspOptions& opts);

/// The APSP workload running `kind`'s rounds body.
std::unique_ptr<Workload> MakeApspWorkload(
    SolverKind kind, sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const std::vector<BlockRecord>& blocks, const ApspOptions& opts);

/// The one attempt loop. `phantom` marks a model run, which never assembles.
ApspRunResult RunSolve(sparklet::SparkletContext& ctx,
                       const BlockLayout& layout, const ApspOptions& opts,
                       Workload& workload, bool phantom);

}  // namespace apspark::apsp
