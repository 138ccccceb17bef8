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
#pragma once

#include "apsp/solver.h"

namespace apspark::apsp {

class BlockedCollectBroadcastSolver final : public ApspWorkload {
 public:
  using ApspWorkload::ApspWorkload;

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override;
};

}  // namespace apspark::apsp
