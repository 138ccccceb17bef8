// Blocked In-Memory APSP (paper Algorithm 3).
//
// The 3-phase blocked Floyd-Warshall of Venkataraman et al., expressed in
// pure Spark operations: the closed diagonal block and the updated
// column/row cross blocks are *replicated through the shuffle* (CopyDiag /
// CopyCol + partitionBy with a custom partitioner), then paired with their
// targets via combineByKey(ListAppend) + ListUnpack + MatMin.
//
// Pure and fault-tolerant, but data-intensive: every iteration shuffles
// O(q^2) block copies plus the repartitioned matrix, and since Spark
// preserves shuffle spill for fault tolerance, per-node local storage grows
// linearly with the iteration count — the failure the paper hits for small
// b (Figure 3) and at p = 1024 (Table 3).
//
// The round's phases are the functions in namespace im below; the shuffle
// KSSP plane (ksource_blocked.cc) calls the same ones and adds only its
// frontier fold. `name` prefixes every stage name ("im-diag", "ksp-diag").
#pragma once

#include <string>

#include "apsp/solver.h"

namespace apspark::apsp {

class BlockedInMemorySolver final : public ApspWorkload {
 public:
  using ApspWorkload::ApspWorkload;

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override;
};

namespace im {

/// Phase 1 (Alg. 3 line 2), lazy: closes the diagonal block of pivot t.
sparklet::RddPtr<BlockRecord> CloseDiagonal(const std::string& name,
                                            sparklet::RddPtr<BlockRecord> a,
                                            std::int64_t t);

/// Lines 3-10, lazy: CopyDiag scatters the closed diagonal to the cross
/// through the shuffle, where it meets and updates the cross blocks.
/// Returns the updated cross (diagonal included).
sparklet::RddPtr<BlockRecord> UpdateCross(
    sparklet::SparkletContext& ctx, const std::string& name,
    const BlockLayout& layout, sparklet::PartitionerPtr<BlockKey> partitioner,
    sparklet::RddPtr<BlockRecord> a, sparklet::RddPtr<BlockRecord> diag,
    std::int64_t t);

/// Phase 3 (lines 12-14), lazy: CopyCol scatters the updated cross to every
/// off-cross block, which the replicas then update. Returns every block of
/// the next A, not yet repartitioned.
sparklet::RddPtr<BlockRecord> UpdateOffCross(
    sparklet::SparkletContext& ctx, const std::string& name,
    const BlockLayout& layout, sparklet::PartitionerPtr<BlockKey> partitioner,
    sparklet::RddPtr<BlockRecord> a, sparklet::RddPtr<BlockRecord> cross,
    std::int64_t t);

}  // namespace im

}  // namespace apspark::apsp
