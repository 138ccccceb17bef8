#include "apsp/solver.h"

#include <algorithm>
#include <stdexcept>

#include "apsp/solvers/blocked_collect_broadcast.h"
#include "apsp/solvers/blocked_inmemory.h"
#include "apsp/solvers/floyd_warshall_2d.h"
#include "apsp/solvers/repeated_squaring.h"
#include "linalg/kernel_registry.h"

namespace apspark::apsp {

ApspWorkload::ApspWorkload(SolverKind kind, sparklet::SparkletContext& ctx,
                           const BlockLayout& layout,
                           const std::vector<BlockRecord>& blocks,
                           const ApspOptions& opts)
    : kind_(kind),
      layout_(layout),
      blocks_(blocks),
      opts_(opts),
      partitioner_(MakeBlockPartitioner(opts.partitioner, layout,
                                        NumPartitions(ctx, opts))) {}

std::int64_t ApspWorkload::TotalRounds() const {
  return SolverKindRounds(kind_, layout_);
}

void ApspWorkload::Seed(sparklet::SparkletContext& ctx,
                        const CheckpointInfo* checkpoint,
                        const std::string& tag) {
  final_.reset();
  a_ = ctx.ParallelizePartitioned(
      "A" + tag, checkpoint != nullptr ? checkpoint->blocks : blocks_,
      partitioner_);
}

Result<linalg::DenseBlock> ApspWorkload::CollectDistances() {
  return layout_.Assemble(final_->Collect());
}

int NumPartitions(const sparklet::SparkletContext& ctx,
                  const ApspOptions& opts) {
  return std::max(1, opts.partitions_per_core * ctx.config().total_cores());
}

std::unique_ptr<Workload> MakeApspWorkload(
    SolverKind kind, sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const std::vector<BlockRecord>& blocks, const ApspOptions& opts) {
  switch (kind) {
    case SolverKind::kRepeatedSquaring:
      return std::make_unique<RepeatedSquaringSolver>(kind, ctx, layout,
                                                      blocks, opts);
    case SolverKind::kFloydWarshall2d:
      return std::make_unique<FloydWarshall2dSolver>(kind, ctx, layout,
                                                     blocks, opts);
    case SolverKind::kBlockedInMemory:
      return std::make_unique<BlockedInMemorySolver>(kind, ctx, layout,
                                                     blocks, opts);
    case SolverKind::kBlockedCollectBroadcast:
      return std::make_unique<BlockedCollectBroadcastSolver>(
          kind, ctx, layout, blocks, opts);
  }
  throw std::invalid_argument("unknown solver kind");
}

ApspRunResult RunSolve(sparklet::SparkletContext& ctx,
                       const BlockLayout& layout, const ApspOptions& opts,
                       Workload& workload, bool phantom) {
  // Resolve the solve's kernel config once — the cluster's ISA, tiles and
  // pool under the request's semiring — and hand it to every task through
  // TaskContext::kernel(); the context's previous config returns on exit.
  const linalg::KernelTuning previous_kernel = ctx.kernel();
  linalg::KernelTuning kernel = ctx.config().kernel;
  kernel.semiring = opts.semiring;
  ctx.set_kernel(kernel);
  ApspRunResult result;
  result.rounds_total = workload.TotalRounds();
  const std::int64_t rounds_remaining =
      std::max<std::int64_t>(0, result.rounds_total - opts.start_round);
  const std::int64_t rounds_to_run =
      opts.max_rounds > 0 ? std::min(opts.max_rounds, rounds_remaining)
                          : rounds_remaining;
  const std::int64_t end_round = opts.start_round + rounds_to_run;

  workload.Seed(ctx, nullptr, "");
  // The paper disregards the cost of populating the RDDs (§5.1).
  ctx.cluster().Reset();
  // Arm injected executor losses; stage ordinals count from this Reset.
  for (const auto& plan : opts.fail_nodes) {
    ctx.fault_injector().FailNode(plan.node, plan.at_stage);
  }
  for (const auto& plan : opts.fail_racks) {
    ctx.fault_injector().FailRack(plan.rack, plan.at_stage);
  }
  for (const std::int64_t at_stage : opts.add_nodes) {
    ctx.fault_injector().AddNode(at_stage);
  }
  // The job start is durable (the inputs recompute from stable data): a
  // restart without a checkpoint redoes everything from here, and the
  // recovery accounting measures exactly that.
  ctx.cluster().NoteDurableMark();

  // Completed real-data runs end with a driver-side assembly collect. It
  // runs inside the attempt loop so an executor loss firing during assembly
  // goes through the same recovery as one mid-sweep.
  const bool want_assembly = !phantom && end_round == result.rounds_total;

  std::optional<Result<linalg::DenseBlock>> assembled;
  std::int64_t start = opts.start_round;
  int restarts = 0;
  for (;;) {
    try {
      workload.RunRounds(ctx, start, end_round);
      result.rounds_executed = rounds_to_run;
      // The assembly collect is excluded from the reported solve time and
      // metrics, like the paper's timings (both captured before the collect
      // below runs). Failure/recovery evidence accrued *during* assembly is
      // folded back in — a loss that fires there must still show in the
      // report — and so is its memory high water where the workload asks.
      result.sim_seconds = ctx.now_seconds();
      result.metrics = ctx.metrics();
      if (want_assembly) {
        assembled = workload.CollectDistances();
        if (workload.ReportsAssemblyPeak()) {
          result.metrics.driver_peak_bytes = ctx.metrics().driver_peak_bytes;
          result.metrics.node_peak_bytes = ctx.metrics().node_peak_bytes;
        }
        FoldRecoveryMetrics(ctx.metrics(), result.metrics);
      }
      result.status = Status::Ok();
      break;
    } catch (const sparklet::SparkletAbort& abort) {
      // DATA_LOSS marks the one recoverable abort: an executor loss
      // destroyed state whose lineage contains out-of-lineage side effects
      // (the impure planes). Pure planes never raise it — they recover in
      // place through lineage recomputation and never reach this handler.
      if (abort.status().code() != StatusCode::kDataLoss ||
          restarts >= opts.max_restarts) {
        result.status = abort.status();
        break;
      }
      ++restarts;
      const std::string tag = "#restart" + std::to_string(restarts);
      auto resume = RestartFromCheckpoint(
          ctx, layout, /*fallback_round=*/opts.start_round,
          [&](const CheckpointInfo* info) { workload.Seed(ctx, info, tag); });
      if (!resume.ok()) {
        result.status = resume.status();
        break;
      }
      start = *resume;
    }
  }

  if (!result.status.ok()) {
    // A failure during assembly keeps the completed sweep's count; one
    // mid-sweep reports the workload's own progress.
    result.rounds_executed =
        std::max(result.rounds_executed, workload.RoundsDone());
    result.sim_seconds = ctx.now_seconds();
    result.metrics = ctx.metrics();
  }
  result.spill_peak_bytes = ctx.cluster().MaxLocalStorageUsed();
  if (result.rounds_executed > 0) {
    const double scale = static_cast<double>(result.rounds_total) /
                         static_cast<double>(result.rounds_executed);
    result.projected_seconds = result.sim_seconds * scale;
    result.projected_spill_bytes =
        static_cast<double>(result.spill_peak_bytes) * scale;
    result.projected_storage_exceeded =
        result.projected_spill_bytes >
        static_cast<double>(ctx.config().local_storage_bytes);
  }

  if (result.status.ok() && assembled.has_value()) {
    if (assembled->ok()) {
      result.distances = std::move(*assembled).value();
    } else {
      result.status = assembled->status();
    }
  }
  result.unfired_plans = ctx.fault_injector().TakeUnfiredPlans();
  ctx.set_kernel(previous_kernel);
  return result;
}

}  // namespace apspark::apsp
