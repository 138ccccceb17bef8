#include "apsp/solvers/blocked_collect_broadcast.h"

#include "apsp/building_blocks.h"
#include "apsp/checkpoint.h"
#include "apsp/solvers/blocked_inmemory.h"

namespace apspark::apsp {

using linalg::BlockRef;
using sparklet::RddPtr;
using sparklet::TaskContext;
using staging::BlockCache;
using staging::ReadPhase3Factors;
using staging::ReadStagedBlock;
using staging::StagingKeys;

namespace cb {

RddPtr<BlockRecord> CloseDiagonal(sparklet::SparkletContext& ctx,
                                  const StagingKeys& keys,
                                  RddPtr<BlockRecord> a, std::int64_t t) {
  auto diag = im::CloseDiagonal(keys.prefix(), std::move(a), t);
  for (const auto& [key, block] : diag->Collect()) {
    staging::StageBlock(ctx, keys.Diag(t), block);
  }
  return diag;
}

RddPtr<BlockRecord> UpdateCross(sparklet::SparkletContext& ctx,
                                const BlockLayout& layout,
                                const StagingKeys& keys,
                                RddPtr<BlockRecord> a, std::int64_t t) {
  auto rowcol =
      a->Filter(keys.prefix() + "-rowcol",
                [&layout, t](const BlockRecord& rec) {
                  return layout.InCross(rec.first, t) &&
                         !OnDiagonal(rec.first, t);
                })
          ->MapPartitions<BlockRecord>(
              keys.prefix() + "-phase2",
              [t, keys](std::vector<BlockRecord>&& part, TaskContext& tc) {
                // Staged reads and charges stay sequential (TaskContext is
                // driver-thread state); the independent cross updates then
                // run as one stealable intra-task batch, charged exactly as
                // the MatProd + MatMin pairs they replace.
                BlockCache cache;
                std::vector<FusedTriple> updates;
                updates.reserve(part.size());
                for (const auto& [key, block] : part) {
                  BlockRef d = ReadStagedBlock(cache, keys.Diag(t), tc);
                  updates.push_back(key.J == t ? FusedTriple{block, block, d}
                                               : FusedTriple{block, d, block});
                }
                auto blocks = MinPlusIntoBatch(std::move(updates), tc);
                std::vector<BlockRecord> out;
                out.reserve(part.size());
                for (std::size_t r = 0; r < part.size(); ++r) {
                  out.push_back({part[r].first, std::move(blocks[r])});
                }
                return out;
              });
  staging::StageCrossFactors(ctx, keys, t, rowcol->Collect(),
                             layout.directed());
  return rowcol;
}

RddPtr<BlockRecord> UpdateOffCross(const BlockLayout& layout,
                                   const StagingKeys& keys,
                                   RddPtr<BlockRecord> a, std::int64_t t) {
  const bool directed = layout.directed();
  return a
      ->Filter(keys.prefix() + "-offcol",
               [&layout, t](const BlockRecord& rec) {
                 return !layout.InCross(rec.first, t);
               })
      ->MapPartitions<BlockRecord>(
          keys.prefix() + "-phase3",
          [t, directed, keys](std::vector<BlockRecord>&& part,
                              TaskContext& tc) {
            BlockCache cache;
            std::vector<FusedTriple> updates;
            updates.reserve(part.size());
            for (const auto& [key, block] : part) {
              auto [left, right] =
                  ReadPhase3Factors(keys, cache, t, key, directed, tc);
              updates.push_back({block, left, right});
            }
            auto blocks = MinPlusIntoBatch(std::move(updates), tc);
            std::vector<BlockRecord> out;
            out.reserve(part.size());
            for (std::size_t r = 0; r < part.size(); ++r) {
              out.push_back({part[r].first, std::move(blocks[r])});
            }
            return out;
          });
}

void Rebuild(sparklet::SparkletContext& ctx, const std::string& name,
             RddPtr<BlockRecord>& a, std::vector<RddPtr<BlockRecord>> parts,
             sparklet::PartitionerPtr<BlockKey> partitioner) {
  auto prev = a;
  a = sparklet::PartitionBy(ctx.Union(name + "-union", std::move(parts)),
                            std::move(partitioner), name + "-repartition")
          ->Persist();
  a->EnsureMaterialized();
  prev->Unpersist();
}

}  // namespace cb

void BlockedCollectBroadcastSolver::RunRounds(
    sparklet::SparkletContext& ctx, std::int64_t first, std::int64_t end) {
  RddPtr<BlockRecord> current = a_;
  const StagingKeys keys("cb");

  for (std::int64_t i = first; i < end; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    auto diag = cb::CloseDiagonal(ctx, keys, current, i);
    auto rowcol = cb::UpdateCross(ctx, layout_, keys, current, i);
    auto offcol = cb::UpdateOffCross(layout_, keys, current, i);
    cb::Rebuild(ctx, "cb", current, {diag, rowcol, offcol}, partitioner_);

    // Optional durability extension (see apsp/checkpoint.h): stage A so a
    // restarted job resumes here instead of from scratch.
    if (opts_.checkpoint_every > 0 && (i + 1) % opts_.checkpoint_every == 0) {
      SaveCheckpoint(ctx, layout_, current->Collect(), i + 1);
    }
  }
  final_ = current;
}

}  // namespace apspark::apsp
