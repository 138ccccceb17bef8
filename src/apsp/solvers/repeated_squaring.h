// Repeated Squaring APSP (paper Algorithm 1).
//
// Computes A^n over the (min,+) semiring by repeated squaring. The naive
// cartesian-based product shuffles all-to-all and "easily stalls even on
// small problems" (§4.2), so — like the paper — the matrix-matrix product is
// rewritten as a sequence of per-column-block matrix-vector products: for
// each column block J, the column is collected on the driver, staged in
// shared persistent storage, and executors multiply their resident blocks
// against the staged segments; reduceByKey(MatMin) finishes the product.
//
// Impure: column staging through the shared file system is a side effect
// outside the RDD lineage.
//
// One "round" (for projection purposes) is one column sweep; a full run is
// ceil(log2(n)) squarings x q sweeps, matching the iteration counts the
// paper reports in Table 2.
#pragma once

#include "apsp/solver.h"

namespace apspark::apsp {

class RepeatedSquaringSolver final : public ApspWorkload {
 public:
  using ApspWorkload::ApspWorkload;

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override;
};

}  // namespace apspark::apsp
