// Blocked Collect/Broadcast APSP (paper Algorithm 4).
//
// A redesign of Blocked In-Memory that bypasses the CopyDiag/CopyCol data
// shuffling: the closed diagonal block and the updated column/row cross
// blocks are collected on the driver and redistributed to executors through
// shared persistent storage; Phase 2 and Phase 3 become narrow MinPlus maps
// whose second operand is read (and cached per task) from that storage.
//
// Impure — the storage side channel is not covered by lineage — but it is
// the paper's best-performing solver: per iteration, only the final
// union + partitionBy shuffles data, so local-storage spill stays within
// bounds where Blocked In-Memory overflows.
//
// The round's phases are the functions in namespace cb below; the staged
// KSSP plane (ksource_blocked.cc) calls the same ones and adds only its
// frontier fold. Stage names carry the staging prefix ("cb-diag",
// "ks-diag", ...), so two staged solves in one context stay apart.
#pragma once

#include <string>
#include <vector>

#include "apsp/solver.h"
#include "apsp/solvers/staging.h"

namespace apspark::apsp {

class BlockedCollectBroadcastSolver final : public ApspWorkload {
 public:
  using ApspWorkload::ApspWorkload;

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override;
};

namespace cb {

/// Phase 1 (Alg. 4 lines 2-3): closes the diagonal block of pivot t, brings
/// it to the driver and stages it under keys.Diag(t).
sparklet::RddPtr<BlockRecord> CloseDiagonal(sparklet::SparkletContext& ctx,
                                            const staging::StagingKeys& keys,
                                            sparklet::RddPtr<BlockRecord> a,
                                            std::int64_t t);

/// Phase 2 (lines 5-7): updates the cross blocks against the staged
/// diagonal, collects them and stages the oriented factors.
sparklet::RddPtr<BlockRecord> UpdateCross(sparklet::SparkletContext& ctx,
                                          const BlockLayout& layout,
                                          const staging::StagingKeys& keys,
                                          sparklet::RddPtr<BlockRecord> a,
                                          std::int64_t t);

/// Phase 3 (line 9), lazy: every off-cross block against the staged
/// factors, A_UV = min(A_UV, A_Ut (min,+) A_tV).
sparklet::RddPtr<BlockRecord> UpdateOffCross(const BlockLayout& layout,
                                             const staging::StagingKeys& keys,
                                             sparklet::RddPtr<BlockRecord> a,
                                             std::int64_t t);

/// Lines 11-12: replaces `a` with the union of `parts` repartitioned to
/// the intended layout, persisted and materialized, then unpersists the
/// previous A. Stage names are "<name>-union" and "<name>-repartition".
void Rebuild(sparklet::SparkletContext& ctx, const std::string& name,
             sparklet::RddPtr<BlockRecord>& a,
             std::vector<sparklet::RddPtr<BlockRecord>> parts,
             sparklet::PartitionerPtr<BlockKey> partitioner);

}  // namespace cb

}  // namespace apspark::apsp
