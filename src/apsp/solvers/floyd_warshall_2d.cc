#include "apsp/solvers/floyd_warshall_2d.h"

#include <memory>

#include "apsp/building_blocks.h"

namespace apspark::apsp {

using linalg::BlockRef;
using sparklet::RddPtr;
using sparklet::TaskContext;

void FloydWarshall2dSolver::RunRounds(sparklet::SparkletContext& ctx,
                                     std::int64_t first, std::int64_t end) {
  const BlockLayout& layout = layout_;
  RddPtr<BlockRecord> current = a_;
  const auto q = static_cast<std::size_t>(layout.q());

  for (std::int64_t k = first; k < end; ++k) {
    RoundSpanScope round_span(ctx.cluster(), k);
    const std::int64_t big_k = k / layout.block_size();

    // Lines 5-6: identify the blocks holding column k, extract the column
    // segments, and aggregate them on the driver.
    auto segments =
        current
            ->Filter("fw2d-col",
                     [&layout, big_k](const BlockRecord& rec) {
                       return InColumn(layout, rec.first, big_k);
                     })
            ->Map("fw2d-extract",
                  [&layout, k](const BlockRecord& rec, TaskContext& tc) {
                    return ExtractColSegment(layout, rec, k, tc);
                  })
            ->Collect();

    // Line 8: broadcast column k ("the memory footprint of a column is very
    // small, the operation can be performed without persistent storage").
    auto column = std::make_shared<std::vector<BlockRef>>(q);
    for (auto& [row_block, segment] : segments) {
      (*column)[static_cast<std::size_t>(row_block)] = segment;
    }
    ctx.Broadcast(static_cast<std::uint64_t>(layout.n()) * sizeof(double));

    // Directed graphs cannot exploit symmetry: extract and broadcast global
    // row k as well (the paper's §4 note on adapting to digraphs).
    auto row = column;
    if (layout.directed()) {
      auto row_segments =
          current
              ->Filter("fw2d-row",
                       [big_k](const BlockRecord& rec) {
                         return rec.first.I == big_k;
                       })
              ->Map("fw2d-extract-row",
                    [&layout, k](const BlockRecord& rec, TaskContext& tc) {
                      return ExtractRowSegment(layout, rec, k, tc);
                    })
              ->Collect();
      row = std::make_shared<std::vector<BlockRef>>(q);
      for (auto& [col_block, segment] : row_segments) {
        (*row)[static_cast<std::size_t>(col_block)] = segment;
      }
      ctx.Broadcast(static_cast<std::uint64_t>(layout.n()) * sizeof(double));
    }

    // Line 10: the Floyd-Warshall update phase — a pure narrow map, executed
    // partition-at-a-time so one task's independent outer-sum updates are
    // charged through the intra-task schedule and fanned out as stealable
    // tasks on the host pool.
    current =
        current
            ->MapPartitions<BlockRecord>(
                "fw2d-update",
                [column, row](std::vector<BlockRecord>&& part,
                              TaskContext& tc) {
                  return FloydWarshallUpdateBatch(std::move(part), *column,
                                                 *row, tc);
                })
            ->Persist();
    current->EnsureMaterialized();
  }
  final_ = current;
}

}  // namespace apspark::apsp
