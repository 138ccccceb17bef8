#include "mpisim/mpi_solvers.h"

#include <cmath>

#include "linalg/kernels.h"

namespace apspark::mpisim {

using linalg::DenseBlock;

bool IsSquareProcessCount(int p) noexcept {
  if (p <= 0) return false;
  const int r = static_cast<int>(std::lround(std::sqrt(p)));
  return r * r == p;
}

namespace {

Status CheckInput(std::int64_t n, int p) {
  if (!IsSquareProcessCount(p)) {
    return InvalidArgumentError(
        "MPI solvers require a square process grid, got p = " +
        std::to_string(p));
  }
  if (n <= 0) return InvalidArgumentError("n must be positive");
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// FW-2D-GbE
// ---------------------------------------------------------------------------

MpiMetrics Fw2dMpiSolver::ChargeRun(std::int64_t n, int p) const {
  MpiMetrics m;
  const int grid = static_cast<int>(std::lround(std::sqrt(p)));
  const double tile_elems =
      static_cast<double>(n) / grid * (static_cast<double>(n) / grid);
  const auto seg_bytes =
      static_cast<std::uint64_t>(n / grid) * sizeof(double);
  // Per iteration: the owner column broadcasts its row segment along each
  // grid row, the owner row broadcasts its column segment along each grid
  // column (both of length n/grid), then every rank updates its tile.
  const double bcast = 2.0 * tuning_.BroadcastSeconds(seg_bytes, grid);
  const double update = tile_elems * tuning_.fw2d_update_op_seconds;
  m.comm_seconds = bcast * static_cast<double>(n);
  m.comm_bytes = 2ULL * seg_bytes * static_cast<std::uint64_t>(n) *
                 static_cast<std::uint64_t>(grid);
  m.compute_seconds = update * static_cast<double>(n);
  m.supersteps = n;
  return m;
}

MpiRunResult Fw2dMpiSolver::Solve(const DenseBlock& adjacency, int p) const {
  MpiRunResult result;
  result.status = CheckInput(adjacency.rows(), p);
  if (!result.status.ok()) return result;
  DenseBlock a = adjacency;
  // The real algorithm: mathematically the 2-D decomposition performs the
  // same k-step relaxations as sequential Floyd-Warshall; the decomposition
  // changes *where* work runs, which the cost model accounts for.
  linalg::FloydWarshallInPlace(a, linalg::KernelTuning{});
  result.distances = std::move(a);
  result.metrics = ChargeRun(adjacency.rows(), p);
  result.seconds = result.metrics.total_seconds();
  return result;
}

MpiRunResult Fw2dMpiSolver::Model(std::int64_t n, int p) const {
  MpiRunResult result;
  result.status = CheckInput(n, p);
  if (!result.status.ok()) return result;
  result.metrics = ChargeRun(n, p);
  result.seconds = result.metrics.total_seconds();
  return result;
}

// ---------------------------------------------------------------------------
// DC-GbE
// ---------------------------------------------------------------------------

namespace {

/// In-place Kleene recursion on the sub-matrix A[r0..r0+m) x [r0..r0+m)
/// of an n x n matrix with leading dimension ld, using scratch views into
/// the same matrix (the 2x2 block scheme keeps everything in place).
void KleeneRecurse(double* base, std::int64_t ld, std::int64_t r0,
                   std::int64_t m, const linalg::KernelTuning& kernel) {
  constexpr std::int64_t kBaseCase = 32;
  if (m <= kBaseCase) {
    linalg::FloydWarshallRaw(m, base + r0 * ld + r0, ld, kernel);
    return;
  }
  const std::int64_t h = m / 2;       // first half
  const std::int64_t rest = m - h;    // second half
  double* a11 = base + r0 * ld + r0;
  double* a12 = a11 + h;
  double* a21 = a11 + h * ld;
  double* a22 = a21 + h;

  // 1. Close A11.
  KleeneRecurse(base, ld, r0, h, kernel);
  // 2. A12 = A11* (min,+) A12 ; A21 = A21 (min,+) A11*.
  linalg::MinPlusAccumulateRaw(h, rest, h, a11, ld, a12, ld, a12, ld,
                               kernel);
  linalg::MinPlusAccumulateRaw(rest, h, h, a21, ld, a11, ld, a21, ld,
                               kernel);
  // 3. A22 = min(A22, A21 (min,+) A12).
  linalg::MinPlusAccumulateRaw(rest, rest, h, a21, ld, a12, ld, a22, ld,
                               kernel);
  // 4. Close A22.
  KleeneRecurse(base, ld, r0 + h, rest, kernel);
  // 5. A21 = A22* (min,+) A21 ; A12 = A12 (min,+) A22*.
  linalg::MinPlusAccumulateRaw(rest, h, rest, a22, ld, a21, ld, a21, ld,
                               kernel);
  linalg::MinPlusAccumulateRaw(h, rest, rest, a12, ld, a22, ld, a12, ld,
                               kernel);
  // 6. A11 = min(A11, A12 (min,+) A21).
  linalg::MinPlusAccumulateRaw(h, h, rest, a12, ld, a21, ld, a11, ld,
                               kernel);
}

}  // namespace

void DcMpiSolver::KleeneApsp(DenseBlock& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Kleene APSP: matrix must be square");
  }
  if (a.is_phantom()) return;
  KleeneRecurse(a.mutable_data(), a.cols(), 0, a.rows(),
                linalg::KernelTuning{});
}

MpiMetrics DcMpiSolver::ChargeRun(std::int64_t n, int p) const {
  MpiMetrics m;
  const double nd = static_cast<double>(n);
  const int grid = static_cast<int>(std::lround(std::sqrt(p)));
  // Compute: the recursion performs ~n^3 semiring operations, perfectly
  // parallelizable across p ranks with blocked kernels.
  m.compute_seconds = nd * nd * nd / p * tuning_.dc_op_seconds;
  // Communication: the communication-avoiding schedule moves O(n^2/sqrt(p))
  // words per rank across O(log p) recursion levels.
  const double levels = std::max(1.0, std::log2(nd / 32.0));
  const double words_per_rank = nd * nd / grid / p;  // n^2/p^1.5 per level pair
  m.comm_bytes = static_cast<std::uint64_t>(nd * nd / grid) * sizeof(double);
  m.comm_seconds =
      levels * (words_per_rank * sizeof(double) /
                    tuning_.bandwidth_bytes_per_sec * grid +
                tuning_.latency_seconds * grid);
  m.supersteps = static_cast<std::int64_t>(levels);
  return m;
}

MpiRunResult DcMpiSolver::Solve(const DenseBlock& adjacency, int p) const {
  MpiRunResult result;
  result.status = CheckInput(adjacency.rows(), p);
  if (!result.status.ok()) return result;
  DenseBlock a = adjacency;
  KleeneApsp(a);
  result.distances = std::move(a);
  result.metrics = ChargeRun(adjacency.rows(), p);
  result.seconds = result.metrics.total_seconds();
  return result;
}

MpiRunResult DcMpiSolver::Model(std::int64_t n, int p) const {
  MpiRunResult result;
  result.status = CheckInput(n, p);
  if (!result.status.ok()) return result;
  result.metrics = ChargeRun(n, p);
  result.seconds = result.metrics.total_seconds();
  return result;
}

}  // namespace apspark::mpisim
