// Cache-aware self-tuning of the kernel tile geometry.
//
// KernelTuning::AutoTune() (declared in kernel_registry.h, implemented here)
// extends CostModel::Calibrate's "measure the machine we actually run on"
// idea from cost constants to tile geometry:
//
//   1. probe the host cache hierarchy — sysfs
//      (/sys/devices/system/cpu/cpu0/cache) when present, a seeded
//      pointer-chase latency sweep as the measured fallback;
//   2. derive tile_j / tile_k / fw_block from the cache sizes with the same
//      residency arguments the static defaults encode (pure + deterministic,
//      unit-tested directly);
//   3. optionally confirm with a short seeded race among neighbouring
//      geometries, where every candidate must first reproduce the scalar
//      oracle bitwise under all four semirings before it may win;
//   4. memoize per (seed, race) so repeated solves pay the probe once and
//      always agree within a process.
//
// The pieces are exposed individually so tests can cover the deterministic
// core without timing noise.
#pragma once

#include <cstdint>

#include "linalg/kernel_registry.h"

namespace apspark::linalg {

/// Detected data-cache capacities in bytes; 0 = unknown at that level.
struct CacheHierarchy {
  std::int64_t l1d_bytes = 0;
  std::int64_t l2_bytes = 0;
  std::int64_t l3_bytes = 0;
  /// True when the numbers came from sysfs (authoritative) rather than the
  /// measured sweep (coarse: quantized to the sweep's power-of-two sizes).
  bool from_sysfs = false;

  bool operator==(const CacheHierarchy&) const = default;
};

/// Parses /sys/devices/system/cpu/cpu0/cache/index*/{level,type,size}.
/// Missing files leave the corresponding level at 0.
CacheHierarchy ReadSysfsCacheHierarchy();

/// Measured fallback: times a seeded random-cyclic pointer chase over
/// power-of-two working sets and reads cache capacities off the latency
/// knees. Coarse by design (quantized, timing-sensitive) — only consulted
/// when sysfs is absent.
CacheHierarchy MeasureCacheHierarchy(std::uint64_t seed);

/// sysfs first, measured sweep second; any level still unknown falls back to
/// the static defaults' reference machine (48 KiB / 2 MiB / 32 MiB).
CacheHierarchy DetectCacheHierarchy(std::uint64_t seed);

/// Pure, deterministic geometry derivation — the core of AutoTune:
///   tile_j   largest power of two with three tile_j-double row segments
///            (C strip, B strip, slack) resident in half of L1d;
///   tile_k   largest power of two keeping the tile_k x tile_j B panel in
///            half of L2;
///   fw_block largest power of two keeping the three-tile working set of a
///            blocked-FW phase-3 update in half of min(L2, L3/4).
/// All other fields (semiring, isa, pool, parallel thresholds) are copied
/// from `base` unchanged; auto_tuned is set.
KernelTuning DeriveKernelTuning(const CacheHierarchy& caches,
                                const KernelTuning& base);

/// Drops the AutoTune memo so tests can exercise the full path repeatedly.
void ResetAutoTuneMemoForTest();

}  // namespace apspark::linalg
