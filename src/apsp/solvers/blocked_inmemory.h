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
#pragma once

#include "apsp/solver.h"

namespace apspark::apsp {

class BlockedInMemorySolver final : public ApspWorkload {
 public:
  using ApspWorkload::ApspWorkload;

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override;
};

}  // namespace apspark::apsp
