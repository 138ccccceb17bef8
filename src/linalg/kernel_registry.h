// Kernel configuration.
//
// Every hot kernel (min-plus product/update, panel update, Floyd-Warshall)
// takes its configuration as an explicit `const KernelTuning&` argument:
// the semiring it evaluates, the SIMD instruction set, the tile geometry and
// the host thread pool it may fan out on. One solve resolves one config
// (apsp::RunSolve builds it from the cluster's kernel settings and the
// request's semiring) and hands it down through sparklet::TaskContext; pool
// workers read only the config they were handed. There is no process-wide
// kernel state, so solves running concurrently on different threads cannot
// observe each other's algebra, ISA or tiles.
//
// The pool is the one threading knob: nullptr (the default) runs every
// kernel inline on the calling thread ("tiled"); a pool fans row stripes,
// blocked-FW tile updates and building-block batches out as stealable tasks
// ("tiled_parallel"). Only host wall time changes: virtual cluster
// accounting always charges the calibrated cost model, never host threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace apspark {
class ThreadPool;
}  // namespace apspark

namespace apspark::linalg {

/// Instruction set the tiled/panel micro-kernels dispatch to at run time.
///
/// The SIMD backends (linalg/simd.h) are compiled unconditionally into their
/// own translation units with per-file ISA flags; which one actually runs is
/// decided per kernel call from `KernelTuning::isa`, clamped to what the
/// host CPU supports (ResolveSimdIsa). kScalar is always available and is
/// bitwise-identical to the SIMD paths by contract — pin it (`--isa scalar`
/// or APSPARK_FORCE_ISA=scalar) when bisecting a kernel bug.
enum class SimdIsa {
  kScalar,  // portable C++ loops (the pre-SIMD tiled kernels)
  kAvx2,    // 4-lane __m256d micro-tile (requires AVX2)
  kAvx512,  // 8-lane __m512d micro-tile (requires AVX-512F)
};

/// Best ISA the host CPU supports among the compiled backends, probed once
/// via CPUID and memoized. Non-x86 builds always return kScalar.
SimdIsa DetectSimdIsa() noexcept;

/// True when the host can execute `isa` AND the backend was compiled in.
bool SimdIsaAvailable(SimdIsa isa) noexcept;

/// Clamps a requested ISA to something executable on this host: a request
/// the CPU cannot run falls back to the next-widest available backend
/// (avx512 -> avx2 -> scalar). kScalar always resolves to itself.
SimdIsa ResolveSimdIsa(SimdIsa requested) noexcept;

/// Process-default ISA: APSPARK_FORCE_ISA (scalar|avx2|avx512) when set and
/// resolvable, otherwise DetectSimdIsa(). Read once and memoized — this is
/// what a default-constructed KernelTuning carries.
SimdIsa DefaultSimdIsa() noexcept;

const char* SimdIsaName(SimdIsa isa) noexcept;
std::optional<SimdIsa> ParseSimdIsa(std::string_view name);

/// The semiring the engine's kernels evaluate (see linalg/semiring.h for the
/// algebraic definitions). One tiled/work-stealing/zero-copy engine serves
/// all four: the kernels are templates over the semiring struct, and the
/// block-level entry points dispatch on KernelTuning::semiring.
enum class SemiringId {
  kMinPlus,   // (min, +): APSP path lengths — the paper's default
  kBoolean,   // (or, and): transitive closure / reachability
  kMaxMin,    // (max, min): bottleneck (maximum-capacity) paths
  kMaxTimes,  // (max, x): widest / most-reliable paths over [0, 1]
};

/// The immutable configuration one kernel call runs under: algebra, ISA,
/// tiling and threading. Defaults target a 48 KiB L1d + 2 MiB L2 AVX
/// machine; all values are safe for any shape (ragged edges are handled by
/// the kernels).
struct KernelTuning {
  /// Semiring the kernels evaluate. A solve takes it from
  /// apsp::ApspOptions::semiring, whatever the cluster's config carries.
  SemiringId semiring = SemiringId::kMinPlus;
  /// Micro-kernel instruction set. Defaults to the CPUID-detected best (or
  /// APSPARK_FORCE_ISA); clamped per call by ResolveSimdIsa, so carrying
  /// kAvx512 on an AVX2 host silently runs the AVX2 backend. All ISAs are
  /// bitwise-identical on every semiring — this knob trades speed only.
  SimdIsa isa = DefaultSimdIsa();
  /// Host pool the kernels fan out on; nullptr runs them inline. Not owned:
  /// the pool must outlive every kernel call made with this config.
  ThreadPool* pool = nullptr;

  /// Columns of B/C processed per tile: one C-row segment plus one B-row
  /// segment of this width must stay L1-resident (2 x 8 KiB at 1024).
  std::int64_t tile_j = 1024;
  /// Rows of B held hot per panel: tile_k x tile_j doubles should fit L2
  /// (128 x 1024 x 8 B = 1 MiB).
  std::int64_t tile_k = 128;
  /// Diagonal-tile size of the tiled Floyd-Warshall decomposition.
  std::int64_t fw_block = 128;

  /// Minimum rows per stripe when fanning a kernel out on the pool.
  std::int64_t parallel_grain_rows = 64;
  /// Blocks smaller than this many output elements never fan out (the
  /// dispatch overhead would dominate).
  std::int64_t parallel_min_elems = 128 * 128;
  /// Adaptive task granularity of the batch decomposition (apsp building
  /// blocks): block updates whose modelled kernel cost is below this floor
  /// are merged with their neighbours into one stealable task, so a q^2
  /// batch of tiny-b updates does not pay q^2 dispatches. ~40 µs of modelled
  /// kernel time corresponds to a b ≈ 32..48 fused update; real updates at
  /// b >= 64 stay individually stealable. 0 disables merging.
  double task_grain_floor_seconds = 4.0e-5;

  /// True when this tuning came out of AutoTune() rather than the static
  /// defaults — surfaced by the CLI banner so bench JSONs and CI logs record
  /// what actually ran.
  bool auto_tuned = false;

  bool operator==(const KernelTuning&) const = default;

  /// Cache-aware self-tuning (linalg/autotune.cc): probes the host L1/L2/L3
  /// sizes (sysfs, with a measured pointer-chase fallback), derives
  /// tile_j/tile_k/fw_block from them, optionally confirms the choice with a
  /// short seeded race among neighbouring geometries (every candidate is
  /// verified bitwise against the scalar oracle before it may win), and
  /// memoizes the geometry per seed. Deterministic given a seed when the
  /// race is disabled; with the race, the memo pins the first outcome for
  /// the rest of the process. Every field but the geometry is copied from
  /// `base`, and the race runs under base's ISA.
  static KernelTuning AutoTune(const KernelTuning& base,
                               std::uint64_t seed = 42,
                               bool confirm_race = true);
};

const char* SemiringName(SemiringId semiring) noexcept;
std::optional<SemiringId> ParseSemiring(std::string_view name);

// --- End-to-end benchmark surface -----------------------------------------
//
// The end-to-end benchmark (perfbench/) probes single kernels outside any
// solve and names these; they serve it alone. Nothing in the library or the
// CLI calls them, so no solve ever reads them. They go with the next change
// to the benchmark.

/// The calling thread's default config (a default-constructed KernelTuning
/// unless a ScopedSimdIsa on this thread changed its ISA). The config-less
/// overloads of MinPlusAccumulateRaw / MinPlusUpdateRect / FloydWarshallRaw
/// read it.
const KernelTuning& GetKernelTuning() noexcept;

/// Lazily created pool of hardware-concurrency workers; perfbench reports
/// its width.
ThreadPool& KernelThreadPool();

/// RAII: pins the ISA of the calling thread's default config for a scope.
/// Other threads' defaults are untouched.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa);
  ~ScopedSimdIsa();
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  SimdIsa saved_;
};

/// One-line human-readable rendering of a tuning, e.g.
///   "tiled isa=avx512 (requested avx512, host best avx512) tiles j=1024
///    k=128 fw=128 [auto-tuned]"
/// ("tiled_parallel (N threads)" when the config has a pool) — what
/// `apspark_cli plan` and the solve banner print so logs record the
/// geometry, ISA and threading that actually ran.
std::string DescribeKernelTuning(const KernelTuning& tuning);

}  // namespace apspark::linalg
