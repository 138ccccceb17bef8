// Dense semiring kernels — the compute core of the engine.
//
// These are the C++ equivalents of the operations the paper offloads from
// pySpark to NumPy/SciPy (Intel MKL) and Numba: semiring matrix product,
// element-wise semiring Add, in-place Floyd-Warshall closure, the rank-1
// outer update used by 2D Floyd-Warshall, and the cache-blocked sequential
// Floyd-Warshall of Venkataraman et al. used both as the diagonal-block
// solver and as the single-core reference (T1) for weak-scaling efficiency.
//
// Every entry point takes the config it runs under (linalg/kernel_registry.h)
// as an explicit `const KernelTuning&`: it dispatches on kernel.semiring,
// runs the cache-tiled fused loops under kernel.isa and the tile geometry,
// and fans out on kernel.pool when one is given. Nothing is read from
// process-wide or thread-local state, so kernels with different configs may
// run concurrently. The entry points keep their historical min-plus names
// (MinPlusProduct, MinPlusUpdate, ...) from when the engine was hardwired to
// (min, +); with another semiring in the config the same functions evaluate
// (or, and), (max, min) or (max, x) — see linalg/semiring.h for the algebra
// structs and the scalar oracles. Tiling, ISA and pool reorder only the (+)
// reduction — candidates S::Multiply(a_ik, b_kj) are computed identically,
// Add is a keep-on-tie selection applied in ascending-k order — so every
// config with the same semiring produces bitwise-identical products, equal
// to the naive baseline MinPlusAccumulateRawNaive. ReferenceFloydWarshall is
// a fixed scalar min-plus implementation; the per-semiring oracles are
// SemiringClosure / SemiringProductAccumulate.
//
// Bit-packed boolean blocks (DenseBlock::PackedBoolean) route to dedicated
// word-parallel or/and kernels: a product walks the set bits of A's rows
// and ors 64-column words of B into C. Packed operands require the boolean
// semiring in the config and may not mix with dense operands in one call.
//
// All kernels propagate phantom blocks: if any operand is phantom, the result
// is a phantom of the correct shape — preserving bit-packedness when all
// operands carry it — and no arithmetic is performed (cost accounting happens
// at the building-block layer, see apsp/building_blocks.h).
#pragma once

#include <cstdint>

#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"

namespace apspark::linalg {

/// C = A (x) B under kernel.semiring (historically min-plus — the name
/// predates the semiring engine). Requires a.cols() == b.rows(). The result
/// is filled with the semiring Zero before accumulation.
DenseBlock MinPlusProduct(const DenseBlock& a, const DenseBlock& b,
                          const KernelTuning& kernel);

/// Fused update: c = c (+) (A (x) B) element-wise, in place — the hot
/// path of every blocked solver. One pass, no intermediate product block.
/// Requires c.rows() == a.rows(), c.cols() == b.cols(), a.cols() == b.rows().
void MinPlusUpdate(const DenseBlock& a, const DenseBlock& b, DenseBlock& c,
                   const KernelTuning& kernel);

/// Rectangular frontier update: c[m x w] = min(c, A[m x k] (min,+) P[k x w])
/// where w — the panel width, i.e. the source count of a batched k-source
/// solve — is typically far smaller than the block size. A narrow panel
/// runs a micro-kernel that keeps each C row segment register-resident
/// across the whole (min, +) reduction; a wide one runs the square-tiled
/// kernel. Both apply candidates in the same ascending-k order, so results
/// are bitwise identical to MinPlusUpdate — provided c does not alias a or
/// p: the panel kernel defers C-row writes to an accumulator, so an
/// in-place c == p call would observe different intermediate values
/// (compute into a copy instead, as apsp::MinPlusRect does). The config-less
/// overload is perfbench-only (see GetKernelTuning).
void MinPlusUpdateRect(const DenseBlock& a, const DenseBlock& p, DenseBlock& c,
                       const KernelTuning& kernel = GetKernelTuning());

/// Element-wise semiring Add (the paper's MatMin under min-plus).
DenseBlock ElementMin(const DenseBlock& a, const DenseBlock& b,
                      const KernelTuning& kernel);
void ElementMinInPlace(DenseBlock& a, const DenseBlock& b,
                       const KernelTuning& kernel);

/// In-place Floyd-Warshall over a square block: closes paths through the
/// block's own vertices (the paper's FloydWarshall building block). Blocks
/// wider than kernel.fw_block run the 3-phase blocked decomposition.
void FloydWarshallInPlace(DenseBlock& a, const KernelTuning& kernel);

/// a_ij = a_ij (+) (u_i (x) v_j) where u is a rows x 1 and v a cols x 1
/// vector (the paper's FloydWarshallUpdate: C = B_Ik 1^T + 1 B_Jk^T, then
/// MatMin, under min-plus).
void OuterSumMinUpdate(DenseBlock& a, const DenseBlock& u, const DenseBlock& v,
                       const KernelTuning& kernel);

/// Sequential cache-blocked Floyd-Warshall (Venkataraman et al. [23]) over a
/// full n x n matrix, tile size `block_size`. This is the "efficient
/// sequential Floyd-Warshall as implemented in SciPy" used for T1. With a
/// pool in the config the phase-2/phase-3 tile updates fan out on it.
void BlockedFloydWarshall(DenseBlock& a, std::int64_t block_size,
                          const KernelTuning& kernel);

/// Plain textbook k-i-j Floyd-Warshall, always (min, +) — the fixed scalar
/// oracle tests compare against. The per-semiring oracle is
/// linalg::SemiringClosureDispatch.
void ReferenceFloydWarshall(DenseBlock& a);

// --- Raw strided kernels (used by the blocked solvers; exposed for tests) --

/// C[mxn] = C (+) (A[mxk] (x) B[kxn]) with leading dimensions lda/ldb/ldc:
/// the register/cache-tiled micro-kernel. k and j are tiled so one B panel
/// stays L2-resident and one C/B row segment L1-resident; the annihilator
/// guard (S::IsZero) is hoisted out of the vectorizable inner loop; with a
/// pool the m rows split into stripes on it. In-place aliasing of C with A
/// or B rows is supported (the blocked Floyd-Warshall phases rely on it).
/// Raw kernels take dense double payloads only. The config-less overload is
/// perfbench-only (see GetKernelTuning).
void MinPlusAccumulateRaw(std::int64_t m, std::int64_t n, std::int64_t k,
                          const double* a, std::int64_t lda, const double* b,
                          std::int64_t ldb, double* c, std::int64_t ldc,
                          const KernelTuning& kernel = GetKernelTuning());

/// Scalar i-k-j implementation (the seed's original loop shape) under
/// `semiring`: the reference baseline benchmarks and tests measure the
/// tiled kernel against. No solve runs it.
void MinPlusAccumulateRawNaive(std::int64_t m, std::int64_t n, std::int64_t k,
                               const double* a, std::int64_t lda,
                               const double* b, std::int64_t ldb, double* c,
                               std::int64_t ldc, SemiringId semiring);

/// In-place FW on an n x n tile with leading dimension lda. The config-less
/// overload is perfbench-only (see GetKernelTuning).
void FloydWarshallRaw(std::int64_t n, double* a, std::int64_t lda,
                      const KernelTuning& kernel = GetKernelTuning());

}  // namespace apspark::linalg
