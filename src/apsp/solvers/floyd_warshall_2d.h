// 2D Floyd-Warshall (paper Algorithm 2).
//
// The textbook parallel Floyd-Warshall on a 2-D block decomposition: in
// iteration k, global column k is extracted from the blocks of column-block
// K = k / b, aggregated on the driver via collect, broadcast to all
// executors, and every block applies the FloydWarshallUpdate outer-sum.
//
// Pure: only collect + broadcast + narrow maps — no shuffles, no side
// effects. But n iterations of per-iteration O(b^2) work give the poor
// computation-to-overhead balance the paper reports (Table 2: per-iteration
// time is nearly independent of b; projected totals are in days).
#pragma once

#include "apsp/solver.h"

namespace apspark::apsp {

class FloydWarshall2dSolver final : public ApspWorkload {
 public:
  using ApspWorkload::ApspWorkload;

  void RunRounds(sparklet::SparkletContext& ctx, std::int64_t first,
                 std::int64_t end) override;
};

}  // namespace apspark::apsp
