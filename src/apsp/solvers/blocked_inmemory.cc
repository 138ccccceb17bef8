#include "apsp/solvers/blocked_inmemory.h"

#include "apsp/building_blocks.h"
#include "apsp/combine_steps.h"

namespace apspark::apsp {

using sparklet::RddPtr;
using sparklet::TaskContext;

namespace im {

RddPtr<BlockRecord> CloseDiagonal(const std::string& name,
                                  RddPtr<BlockRecord> a, std::int64_t t) {
  return a
      ->Filter(name + "-diag",
               [t](const BlockRecord& rec) { return OnDiagonal(rec.first, t); })
      ->Map(name + "-fw", [](const BlockRecord& rec, TaskContext& tc) {
        return BlockRecord{rec.first, FloydWarshall(rec.second, tc)};
      });
}

RddPtr<BlockRecord> UpdateCross(
    sparklet::SparkletContext& ctx, const std::string& name,
    const BlockLayout& layout, sparklet::PartitionerPtr<BlockKey> partitioner,
    RddPtr<BlockRecord> a, RddPtr<BlockRecord> diag, std::int64_t t) {
  auto diag_copies = diag->FlatMap<TaggedRecord>(
      name + "-copydiag",
      [&layout, t](const BlockRecord& rec, TaskContext&,
                   std::vector<TaggedRecord>& out) {
        CopyDiag(layout, t, rec.second, out);
      });
  auto d0 =
      sparklet::PartitionBy(diag_copies, partitioner, name + "-copydiag-by");
  auto rowcol = TagOriginals(a->Filter(name + "-rowcol",
                                       [&layout, t](const BlockRecord& rec) {
                                         return layout.InCross(rec.first, t);
                                       }),
                             name + "-rowcol-tag");
  auto paired = GatherLists(ctx.Union(name + "-phase2-union", {d0, rowcol}),
                            partitioner, name + "-phase2-combine");
  // Partition-at-a-time unpack: the fused per-block updates fan out on the
  // host thread pool (modelled task time is charged identically).
  return paired->MapPartitions<BlockRecord>(
      name + "-phase2-unpack",
      [&layout, t](std::vector<ListRecord>&& part, TaskContext& tc) {
        return Phase2UnpackBatch(layout, t, std::move(part), tc);
      });
}

RddPtr<BlockRecord> UpdateOffCross(
    sparklet::SparkletContext& ctx, const std::string& name,
    const BlockLayout& layout, sparklet::PartitionerPtr<BlockKey> partitioner,
    RddPtr<BlockRecord> a, RddPtr<BlockRecord> cross, std::int64_t t) {
  auto cross_copies = cross->FlatMap<TaggedRecord>(
      name + "-copycol",
      [&layout, t](const BlockRecord& rec, TaskContext& tc,
                   std::vector<TaggedRecord>& out) {
        CopyCol(layout, t, rec, out, tc);
      });
  auto d =
      sparklet::PartitionBy(cross_copies, partitioner, name + "-copycol-by");
  auto rest = TagOriginals(a->Filter(name + "-offcol",
                                     [&layout, t](const BlockRecord& rec) {
                                       return !layout.InCross(rec.first, t);
                                     }),
                           name + "-offcol-tag");
  auto phase3 = GatherLists(ctx.Union(name + "-phase3-union", {rest, d}),
                            partitioner, name + "-phase3-combine");
  return phase3->MapPartitions<BlockRecord>(
      name + "-phase3-unpack",
      [&layout, t](std::vector<ListRecord>&& part, TaskContext& tc) {
        return Phase3UnpackBatch(layout, t, std::move(part), tc);
      });
}

}  // namespace im

void BlockedInMemorySolver::RunRounds(sparklet::SparkletContext& ctx,
                                     std::int64_t first, std::int64_t end) {
  RddPtr<BlockRecord> current = a_;

  for (std::int64_t i = first; i < end; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    auto diag = im::CloseDiagonal("im", current, i);
    auto cross =
        im::UpdateCross(ctx, "im", layout_, partitioner_, current, diag, i);
    auto updated =
        im::UpdateOffCross(ctx, "im", layout_, partitioner_, current, cross, i);
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
