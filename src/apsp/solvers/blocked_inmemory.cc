#include "apsp/solvers/blocked_inmemory.h"

#include "apsp/building_blocks.h"
#include "apsp/combine_steps.h"

namespace apspark::apsp {

using sparklet::RddPtr;
using sparklet::TaskContext;

void BlockedInMemorySolver::RunRounds(sparklet::SparkletContext& ctx,
                                     std::int64_t first, std::int64_t end) {
  const BlockLayout& layout = layout_;
  RddPtr<BlockRecord> current = a_;

  for (std::int64_t i = first; i < end; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    // --- Phase 1 (Alg. 3 lines 2-4): close the diagonal block and scatter
    // copies of it to the column/row cross via a custom-partitioned shuffle.
    auto diag = current
                    ->Filter("im-diag",
                             [i](const BlockRecord& rec) {
                               return OnDiagonal(rec.first, i);
                             })
                    ->Map("im-fw", [](const BlockRecord& rec, TaskContext& tc) {
                      return BlockRecord{rec.first,
                                         FloydWarshall(rec.second, tc)};
                    });
    auto diag_copies = diag->FlatMap<TaggedRecord>(
        "im-copydiag",
        [&layout, i](const BlockRecord& rec, TaskContext&,
                     std::vector<TaggedRecord>& out) {
          CopyDiag(layout, i, rec.second, out);
        });
    auto d0 =
        sparklet::PartitionBy(diag_copies, partitioner_, "im-copydiag-by");

    // --- Phase 2 (lines 6-10): pair cross blocks with the diagonal copy,
    // update them, then scatter the CopyCol replicas for Phase 3.
    auto rowcol = TagOriginals(
        current->Filter("im-rowcol",
                        [&layout, i](const BlockRecord& rec) {
                          return layout.InCross(rec.first, i);
                        }),
        "im-rowcol-tag");
    auto paired = GatherLists(
        ctx.Union("im-phase2-union", {d0, rowcol}), partitioner_,
        "im-phase2-combine");
    // Partition-at-a-time unpack: the fused per-block updates fan out on the
    // host thread pool (modelled task time is charged identically).
    auto updated_cross = paired->MapPartitions<BlockRecord>(
        "im-phase2-unpack",
        [&layout, i](std::vector<ListRecord>&& part, TaskContext& tc) {
          return Phase2UnpackBatch(layout, i, std::move(part), tc);
        });
    auto cross_copies = updated_cross->FlatMap<TaggedRecord>(
        "im-copycol",
        [&layout, i](const BlockRecord& rec, TaskContext& tc,
                     std::vector<TaggedRecord>& out) {
          CopyCol(layout, i, rec, out, tc);
        });
    auto d = sparklet::PartitionBy(cross_copies, partitioner_, "im-copycol-by");

    // --- Phase 3 (lines 12-15): update all remaining blocks and rebuild A.
    auto rest = TagOriginals(
        current->Filter("im-offcol",
                        [&layout, i](const BlockRecord& rec) {
                          return !layout.InCross(rec.first, i);
                        }),
        "im-offcol-tag");
    auto phase3 = GatherLists(ctx.Union("im-phase3-union", {rest, d}),
                              partitioner_, "im-phase3-combine");
    auto updated = phase3->MapPartitions<BlockRecord>(
        "im-phase3-unpack",
        [&layout, i](std::vector<ListRecord>&& part, TaskContext& tc) {
          return Phase3UnpackBatch(layout, i, std::move(part), tc);
        });
    // Line 15's explicit partitionBy: pySpark cannot recognise the fresh
    // partitioner object as equal to the previous one, so this repartition
    // always shuffles — the cost the paper attributes the storage blow-up
    // to (§5.2).
    auto prev = current;
    current = sparklet::PartitionBy(updated, partitioner_, "im-repartition")
                  ->Persist();
    current->EnsureMaterialized();
    prev->Unpersist();
  }
  final_ = current;
}

}  // namespace apspark::apsp
