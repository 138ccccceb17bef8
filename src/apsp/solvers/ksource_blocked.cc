#include "apsp/solvers/ksource_blocked.h"

#include <stdexcept>
#include <utility>

#include "apsp/building_blocks.h"
#include "apsp/checkpoint.h"
#include "apsp/combine_steps.h"
#include "apsp/solver.h"
#include "apsp/solvers/blocked_collect_broadcast.h"
#include "apsp/solvers/blocked_inmemory.h"
#include "apsp/solvers/staging.h"
#include "linalg/semiring.h"

namespace apspark::apsp {

using linalg::BlockRef;
using linalg::DenseBlock;
using sparklet::RddPtr;
using sparklet::TaskContext;
using staging::BlockCache;
using staging::ReadStagedBlock;
using staging::StagingKeys;

namespace {

/// Early-exit detection: true when every stored off-diagonal cross block of
/// pivot t is entirely the semiring's annihilator (all-infinite under
/// (min, +)), i.e. block row/column t carries no path in or out and phases
/// 2/3 plus the frontier factor sweep are provably no-ops. The scan charges
/// like the element-wise kernel it is and runs identically on phantom blocks
/// (whose BlockAllZero() is false, so a phantom run charges the same
/// detection time but never skips). Routing through the semiring's IsZero —
/// instead of the historical hardwired isinf test — is what makes the skip
/// sound for boolean/max-times runs, whose annihilator is 0.0, not +inf: an
/// isinf scan there would claim a cross full of unreachable-0 entries is
/// live and silently forfeit every skip (or worse, skip on the wrong
/// predicate if the matrix were re-encoded).
bool PivotCrossAllZero(RddPtr<BlockRecord>& a, const BlockLayout& layout,
                       std::int64_t t, linalg::SemiringId semiring) {
  auto flags =
      a->Filter("ks-infscan-cross",
                [&layout, t](const BlockRecord& rec) {
                  return layout.InCross(rec.first, t) &&
                         !OnDiagonal(rec.first, t);
                })
          ->Map("ks-infscan",
                [semiring](const BlockRecord& rec,
                           TaskContext& tc) -> std::int64_t {
                  tc.ChargeCompute(
                      tc.cost_model().ElementwiseSeconds(rec.second->size()));
                  return linalg::BlockAllZero(*rec.second, semiring) ? 1 : 0;
                })
          ->Collect();
  for (const std::int64_t all_zero : flags) {
    if (all_zero == 0) return false;
  }
  return true;
}

/// Rebuilds A after a skipped pivot: only the closed diagonal changed.
/// Takes A by value, so the caller's A is replaced only by the returned,
/// materialized rebuild.
RddPtr<BlockRecord> RebuildSkipped(sparklet::SparkletContext& ctx,
                                   RddPtr<BlockRecord> a,
                                   RddPtr<BlockRecord> diag,
                                   sparklet::PartitionerPtr<BlockKey> part,
                                   std::int64_t t, const std::string& prefix) {
  auto rest = a->Filter(prefix + "-rest",
                        [t](const BlockRecord& rec) {
                          return !OnDiagonal(rec.first, t);
                        });
  cb::Rebuild(ctx, prefix + "-skip", a, {diag, rest}, std::move(part));
  return a;
}

/// One pivot of the staged-storage (impure) sweep. `skip` = early exit.
void RunStagedPivot(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                    std::int64_t t, const StagingKeys& keys,
                    sparklet::PartitionerPtr<BlockKey> block_part,
                    RddPtr<BlockRecord>& a, RddPtr<PanelRecord>& f,
                    bool skip) {
  auto diag = cb::CloseDiagonal(ctx, keys, a, t);

  // --- Pivot panel: P_t = min(F_t, A*_tt (min,+) F_t), staged for the
  // frontier sweep below.
  auto pivot_panel =
      f->Filter("ks-pivot",
                [t](const PanelRecord& rec) { return rec.first == t; })
          ->Map("ks-pivot-update",
                [t, keys](const PanelRecord& rec, TaskContext& tc) {
                  BlockCache cache;
                  BlockRef d = ReadStagedBlock(cache, keys.Diag(t), tc);
                  return PanelRecord{
                      rec.first, MinPlusRect(rec.second, d, rec.second, tc)};
                });
  for (const auto& [idx, panel] : pivot_panel->Collect()) {
    staging::StageBlock(ctx, keys.Panel(t), panel);
  }

  if (skip) {
    // Early exit: the cross is all-infinite, so phases 2/3 and the frontier
    // factor sweep are no-ops. Only panel t changed (through the closed
    // diagonal) and only the diagonal block of A changed.
    auto f_prev = f;
    f = f->Map("ks-frontier-skip",
               [t, keys](const PanelRecord& rec, TaskContext& tc) {
                 if (rec.first != t) return rec;
                 BlockCache cache;
                 return PanelRecord{
                     t, ReadStagedBlock(cache, keys.Panel(t), tc)};
               })
            ->Persist();
    f->EnsureMaterialized();
    f_prev->Unpersist();
    a = RebuildSkipped(ctx, a, diag, block_part, t, keys.prefix());
    return;
  }

  // --- Matrix phases 2 and 3, exactly as in Blocked-CB.
  auto rowcol = cb::UpdateCross(ctx, layout, keys, a, t);
  auto offcol = cb::UpdateOffCross(layout, keys, a, t);

  // --- Frontier sweep: every panel through the pivot's column factors.
  // F_I = min(F_I, A_It (min,+) P_t); the pivot panel becomes P_t.
  auto f_prev = f;
  f = f->MapPartitions<PanelRecord>(
           "ks-frontier",
           [t, keys](std::vector<PanelRecord>&& part, TaskContext& tc) {
             BlockCache cache;
             std::vector<PanelRecord> out(part.size());
             std::vector<FusedTriple> updates;
             std::vector<std::size_t> slots;
             updates.reserve(part.size());
             slots.reserve(part.size());
             for (std::size_t r = 0; r < part.size(); ++r) {
               const auto& [idx, panel] = part[r];
               if (idx == t) {
                 out[r] = {idx,
                           ReadStagedBlock(cache, keys.Panel(t), tc)};
                 continue;
               }
               BlockRef left =
                   ReadStagedBlock(cache, keys.Left(t, idx), tc);
               BlockRef pivot =
                   ReadStagedBlock(cache, keys.Panel(t), tc);
               updates.push_back({panel, left, pivot});
               slots.push_back(r);
             }
             auto panels = MinPlusRectBatch(std::move(updates), tc);
             for (std::size_t p = 0; p < slots.size(); ++p) {
               out[slots[p]] = {part[slots[p]].first,
                                std::move(panels[p])};
             }
             return out;
           })
          ->Persist();
  f->EnsureMaterialized();
  f_prev->Unpersist();

  // --- Rebuild A for the next pivot (Alg. 4 lines 11-12).
  cb::Rebuild(ctx, keys.prefix(), a, {diag, rowcol, offcol}, block_part);
}

/// One pivot of the pure shuffle-replicated sweep: the matrix phases run the
/// Blocked In-Memory combine steps, and the frontier factors replicate
/// through the shuffle (no shared-storage side channel). `skip` = early exit.
void RunShufflePivot(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                     std::int64_t t,
                     sparklet::PartitionerPtr<BlockKey> block_part,
                     sparklet::PartitionerPtr<std::int64_t> panel_part,
                     RddPtr<BlockRecord>& a, RddPtr<PanelRecord>& f,
                     bool skip) {
  const std::int64_t q = layout.q();

  // --- Phase 1: close the pivot diagonal (narrow map; stays in lineage).
  auto diag = im::CloseDiagonal("ksp", a, t);

  // --- Frontier round A: pair the closed diagonal with panel t through the
  // shuffle and form the pivot panel P_t = min(F_t, A*_tt (min,+) F_t).
  auto diag_to_panel = diag->Map(
      "ksp-diag-to-panel",
      [t](const BlockRecord& rec, TaskContext&) -> TaggedPanelRecord {
        return {t, {BlockRole::kDiag, rec.second}};
      });
  auto f_tagged = TagOriginals(f, "ksp-f-tag");
  auto round_a = GatherLists(
      ctx.Union("ksp-round-a-union", {diag_to_panel, f_tagged}), panel_part,
      "ksp-round-a-combine");
  auto f_a = round_a
                 ->MapPartitions<PanelRecord>(
                     "ksp-pivot-update",
                     [](std::vector<PanelListRecord>&& part, TaskContext& tc) {
                       std::vector<PanelRecord> out;
                       out.reserve(part.size());
                       for (auto& [idx, list] : part) {
                         const BlockRef* panel =
                             FindRole(list, BlockRole::kOriginal);
                         if (panel == nullptr) {
                           throw std::logic_error(
                               "ksp round A: missing frontier panel");
                         }
                         const BlockRef* d = FindRole(list, BlockRole::kDiag);
                         out.push_back(
                             {idx, d == nullptr
                                       ? *panel
                                       : MinPlusRect(*panel, *d, *panel, tc)});
                       }
                       return out;
                     })
                 ->Persist();
  f_a->EnsureMaterialized();

  if (skip) {
    auto f_prev = f;
    f = f_a;
    f_prev->Unpersist();
    a = RebuildSkipped(ctx, a, diag, block_part, t, "ksp");
    return;
  }

  // --- Matrix phases 2 and 3, exactly as in Blocked In-Memory. The updated
  // cross feeds phase 3 *and* the frontier factors, so it is persisted
  // before phase 3 builds on it.
  auto updated_cross =
      im::UpdateCross(ctx, "ksp", layout, block_part, a, diag, t)->Persist();
  updated_cross->EnsureMaterialized();
  auto updated =
      im::UpdateOffCross(ctx, "ksp", layout, block_part, a, updated_cross, t);

  // --- Frontier round B: replicate the per-panel left factors A_It (from
  // the phase-2-updated cross) and the pivot panel P_t to every panel, then
  // fold: F_I = min(F_I, A_It (min,+) P_t). All replicas are refs — the
  // shuffle moves modelled bytes, never payload copies.
  auto factor_copies = updated_cross->FlatMap<TaggedPanelRecord>(
      "ksp-factor-copies",
      [&layout, t](const BlockRecord& rec, TaskContext& tc,
                   std::vector<TaggedPanelRecord>& out) {
        const auto& [key, block] = rec;
        if (OnDiagonal(key, t)) return;  // panel t was handled in round A
        if (key.J == t) {
          out.push_back({key.I, {BlockRole::kRow, block}});  // A_xt stored
        } else if (!layout.directed()) {
          // Canonical (t, x) serves A_xt by transposition (executor-side,
          // like the paper's on-demand A_JI).
          out.push_back({key.J, {BlockRole::kRow, Transpose(block, tc)}});
        }
        // Directed row blocks (t, x) are right factors only; the frontier
        // needs just the left side.
      });
  auto pivot_copies =
      f_a->Filter("ksp-pivot-sel",
                  [t](const PanelRecord& rec) { return rec.first == t; })
          ->FlatMap<TaggedPanelRecord>(
              "ksp-pivot-bcast",
              [q, t](const PanelRecord& rec, TaskContext&,
                     std::vector<TaggedPanelRecord>& out) {
                for (std::int64_t i = 0; i < q; ++i) {
                  if (i == t) continue;
                  out.push_back({i, {BlockRole::kCol, rec.second}});
                }
              });
  auto fa_tagged = TagOriginals(f_a, "ksp-fa-tag");
  auto round_b = GatherLists(
      ctx.Union("ksp-round-b-union", {fa_tagged, pivot_copies, factor_copies}),
      panel_part, "ksp-round-b-combine");
  auto f_b =
      round_b
          ->MapPartitions<PanelRecord>(
              "ksp-frontier-update",
              [t](std::vector<PanelListRecord>&& part, TaskContext& tc) {
                std::vector<PanelRecord> out(part.size());
                std::vector<FusedTriple> updates;
                std::vector<std::size_t> slots;
                updates.reserve(part.size());
                slots.reserve(part.size());
                for (std::size_t r = 0; r < part.size(); ++r) {
                  auto& [idx, list] = part[r];
                  const BlockRef* panel =
                      FindRole(list, BlockRole::kOriginal);
                  if (panel == nullptr) {
                    throw std::logic_error(
                        "ksp round B: missing frontier panel");
                  }
                  if (idx == t) {
                    out[r] = {idx, *panel};  // P_t passes through unchanged
                    continue;
                  }
                  const BlockRef* left = FindRole(list, BlockRole::kRow);
                  const BlockRef* pivot = FindRole(list, BlockRole::kCol);
                  if (left == nullptr || pivot == nullptr) {
                    // Every non-pivot panel receives exactly one A_It and
                    // one P_t replica by construction; a silent passthrough
                    // here would return wrong distances with status OK.
                    throw std::logic_error(
                        "ksp round B: missing factor for panel " +
                        std::to_string(idx));
                  }
                  updates.push_back({*panel, *left, *pivot});
                  slots.push_back(r);
                }
                auto panels = MinPlusRectBatch(std::move(updates), tc);
                for (std::size_t p = 0; p < slots.size(); ++p) {
                  out[slots[p]] = {part[slots[p]].first,
                                   std::move(panels[p])};
                }
                return out;
              })
          ->Persist();
  f_b->EnsureMaterialized();
  auto f_prev = f;
  f = f_b;
  f_prev->Unpersist();
  f_a->Unpersist();

  // --- Rebuild A for the next pivot (line 15's explicit partitionBy).
  auto a_prev = a;
  a = sparklet::PartitionBy(updated, block_part, "ksp-repartition")
          ->Persist();
  a->EnsureMaterialized();
  a_prev->Unpersist();
  updated_cross->Unpersist();
}

class KsourceWorkload final : public Workload {
 public:
  KsourceWorkload(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                  const std::vector<BlockRecord>& blocks,
                  std::vector<PanelRecord> frontier, const ApspOptions& opts)
      : layout_(layout),
        blocks_(blocks),
        frontier_(std::move(frontier)),
        opts_(opts),
        block_part_(MakeBlockPartitioner(opts.partitioner, layout,
                                         NumPartitions(ctx, opts))),
        panel_part_(sparklet::MakePortableHash<std::int64_t>(
            std::min<int>(NumPartitions(ctx, opts),
                          static_cast<int>(layout.q())))) {}

  std::int64_t TotalRounds() const override { return layout_.q(); }

  void Seed(sparklet::SparkletContext& ctx, const CheckpointInfo* checkpoint,
            const std::string& tag) override {
    a_ = ctx.ParallelizePartitioned(
        "ksA" + tag, checkpoint != nullptr ? checkpoint->blocks : blocks_,
        block_part_);
    f_ = ctx.ParallelizePartitioned(
        "ksF" + tag, checkpoint != nullptr ? checkpoint->panels : frontier_,
        panel_part_);
  }

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override {
    for (std::int64_t t = first; t < end; ++t) {
      RoundSpanScope round_span(ctx.cluster(), t);
      const bool skip = opts_.early_exit_infinite &&
                        PivotCrossAllZero(a_, layout_, t, opts_.semiring);
      if (opts_.variant == KsourceVariant::kShuffleReplicated) {
        RunShufflePivot(ctx, layout_, t, block_part_, panel_part_, a_, f_,
                        skip);
      } else {
        RunStagedPivot(ctx, layout_, t, keys_, block_part_, a_, f_, skip);
      }
      rounds_done_ = t + 1;
      if (opts_.checkpoint_every > 0 && (t + 1) % opts_.checkpoint_every == 0) {
        SaveCheckpoint(ctx, layout_, a_->Collect(), t + 1, f_->Collect());
      }
    }
  }

  /// The inverse of the frontier decomposition in MakeKsourceWorkload.
  Result<DenseBlock> CollectDistances() override {
    const std::vector<PanelRecord> panels = f_->Collect();
    const std::int64_t k = panels.empty() ? 0 : panels.front().second->cols();
    // Every row is pasted below; fill with the semiring Zero anyway so a
    // would-be gap reads as "unreachable", not as a min-plus artifact.
    DenseBlock out(layout_.n(), k, linalg::SemiringZeroValue(opts_.semiring));
    for (const auto& [idx, panel] : panels) {
      out.PasteRowPanel(idx * layout_.block_size(), *panel);
    }
    return out;
  }

  std::int64_t RoundsDone() const override { return rounds_done_; }

  bool ReportsAssemblyPeak() const override { return true; }

 private:
  const BlockLayout& layout_;
  const std::vector<BlockRecord>& blocks_;
  const std::vector<PanelRecord> frontier_;
  const ApspOptions& opts_;
  const StagingKeys keys_{"ks"};
  sparklet::PartitionerPtr<BlockKey> block_part_;
  sparklet::PartitionerPtr<std::int64_t> panel_part_;
  RddPtr<BlockRecord> a_;
  RddPtr<PanelRecord> f_;
  std::int64_t rounds_done_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeKsourceWorkload(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const std::vector<BlockRecord>& blocks,
    const std::vector<graph::VertexId>& sources, const ApspOptions& opts,
    bool phantom) {
  // One panel per block row: rows of the n x k identity-column frontier
  // (semiring One at each source's row, Zero elsewhere), or phantoms.
  const auto k = static_cast<std::int64_t>(sources.size());
  const DenseBlock full =
      phantom ? DenseBlock()
              : linalg::FrontierPanel(
                    layout.n(),
                    std::vector<std::int64_t>(sources.begin(), sources.end()),
                    linalg::SemiringZeroValue(opts.semiring),
                    linalg::SemiringOneValue(opts.semiring));
  std::vector<PanelRecord> frontier;
  frontier.reserve(static_cast<std::size_t>(layout.q()));
  for (std::int64_t i = 0; i < layout.q(); ++i) {
    const std::int64_t rows = layout.BlockDim(i);
    frontier.push_back(
        {i, linalg::MakeBlock(
                phantom ? DenseBlock::Phantom(rows, k)
                        : full.RowPanel(i * layout.block_size(), rows))});
  }
  return std::make_unique<KsourceWorkload>(ctx, layout, blocks,
                                           std::move(frontier), opts);
}

}  // namespace apspark::apsp
