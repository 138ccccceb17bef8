#include "linalg/autotune.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_utils.h"
#include "linalg/dense_block.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"

namespace apspark::linalg {
namespace {

/// Reference machine of the static KernelTuning defaults — what unknown
/// cache levels fall back to, so "no probe at all" reproduces the defaults.
constexpr std::int64_t kFallbackL1 = 48 * 1024;
constexpr std::int64_t kFallbackL2 = 2 * 1024 * 1024;
constexpr std::int64_t kFallbackL3 = 32 * 1024 * 1024;

std::int64_t FloorPow2(std::int64_t x) {
  std::int64_t p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

/// Parses a sysfs cache size string ("48K", "2048K", "1M", "36864K").
std::int64_t ParseSysfsSize(const std::string& text) {
  std::size_t pos = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (...) {
    return 0;
  }
  if (value <= 0) return 0;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos < text.size()) {
    if (text[pos] == 'K' || text[pos] == 'k') value *= 1024;
    if (text[pos] == 'M' || text[pos] == 'm') value *= 1024 * 1024;
    if (text[pos] == 'G' || text[pos] == 'g') value *= 1024LL * 1024 * 1024;
  }
  return static_cast<std::int64_t>(value);
}

std::optional<std::string> ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  return line;
}

}  // namespace

CacheHierarchy ReadSysfsCacheHierarchy() {
  CacheHierarchy caches;
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int index = 0; index < 8; ++index) {
    const std::string dir = base + std::to_string(index) + "/";
    const auto level = ReadFirstLine(dir + "level");
    const auto type = ReadFirstLine(dir + "type");
    const auto size = ReadFirstLine(dir + "size");
    if (!level || !type || !size) continue;  // index holes end the listing
    if (*type != "Data" && *type != "Unified") continue;  // skip Instruction
    const std::int64_t bytes = ParseSysfsSize(*size);
    if (bytes <= 0) continue;
    if (*level == "1" && caches.l1d_bytes == 0) caches.l1d_bytes = bytes;
    if (*level == "2" && caches.l2_bytes == 0) caches.l2_bytes = bytes;
    if (*level == "3" && caches.l3_bytes == 0) caches.l3_bytes = bytes;
  }
  caches.from_sysfs =
      caches.l1d_bytes > 0 || caches.l2_bytes > 0 || caches.l3_bytes > 0;
  return caches;
}

CacheHierarchy MeasureCacheHierarchy(std::uint64_t seed) {
  // Dependent-load pointer chase over a seeded cyclic permutation: per-access
  // latency is flat while the working set fits a level and jumps at each
  // capacity boundary. The detected size is the last sweep point before a
  // jump — quantized to the sweep grid, which is all the derivation needs.
  constexpr std::int64_t kMinBytes = 16 * 1024;
  constexpr std::int64_t kMaxBytes = 64 * 1024 * 1024;
  constexpr std::int64_t kChases = 1 << 18;
  std::vector<std::int64_t> sizes;
  for (std::int64_t s = kMinBytes; s <= kMaxBytes; s *= 2) sizes.push_back(s);

  std::vector<double> latency;
  latency.reserve(sizes.size());
  for (const std::int64_t bytes : sizes) {
    const std::size_t slots = static_cast<std::size_t>(bytes) / sizeof(void*);
    std::vector<std::size_t> next(slots);
    // Sattolo's algorithm: one full cycle, so the chase visits every slot.
    std::vector<std::size_t> order(slots);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(bytes));
    for (std::size_t i = slots - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.NextBounded(static_cast<std::uint64_t>(i)));
      std::swap(order[i], order[j]);
    }
    for (std::size_t i = 0; i < slots; ++i) {
      next[order[i]] = order[(i + 1) % slots];
    }
    std::size_t p = 0;
    WallTimer timer;
    for (std::int64_t c = 0; c < kChases; ++c) p = next[p];
    const double secs = timer.ElapsedSeconds();
    // Keep the chase variable alive past the timer read.
    if (p == static_cast<std::size_t>(-1)) return CacheHierarchy{};
    latency.push_back(secs / static_cast<double>(kChases));
  }

  // Latency knees: a >= 1.4x jump between adjacent sweep points marks a
  // capacity boundary; the first three mark L1/L2/L3.
  CacheHierarchy caches;
  int knees = 0;
  for (std::size_t i = 0; i + 1 < sizes.size() && knees < 3; ++i) {
    if (latency[i + 1] > latency[i] * 1.4) {
      if (knees == 0) caches.l1d_bytes = sizes[i];
      if (knees == 1) caches.l2_bytes = sizes[i];
      if (knees == 2) caches.l3_bytes = sizes[i];
      ++knees;
    }
  }
  return caches;
}

CacheHierarchy DetectCacheHierarchy(std::uint64_t seed) {
  CacheHierarchy caches = ReadSysfsCacheHierarchy();
  if (!caches.from_sysfs) caches = MeasureCacheHierarchy(seed);
  if (caches.l1d_bytes <= 0) caches.l1d_bytes = kFallbackL1;
  if (caches.l2_bytes <= 0) caches.l2_bytes = kFallbackL2;
  if (caches.l3_bytes <= 0) caches.l3_bytes = kFallbackL3;
  return caches;
}

KernelTuning DeriveKernelTuning(const CacheHierarchy& caches,
                                const KernelTuning& base) {
  KernelTuning tuning = base;
  const std::int64_t l1 = std::max<std::int64_t>(caches.l1d_bytes, 4 * 1024);
  const std::int64_t l2 = std::max<std::int64_t>(caches.l2_bytes, l1);
  const std::int64_t l3 = std::max<std::int64_t>(caches.l3_bytes, l2);

  // One C-row strip + one B-row strip of tile_j doubles must stay
  // L1d-resident with a third strip of slack for A broadcasts — and all
  // three are budgeted into *half* of L1d, leaving the other half for the
  // second micro-tile row, prefetch streams and stack:
  // 3 * tile_j * 8 <= L1d / 2. 48 KiB -> 1024, the static default.
  tuning.tile_j = std::clamp<std::int64_t>(
      FloorPow2(l1 / (2 * 3 * 8)), 128, 8192);
  // The B panel reused across a row block — tile_k rows of tile_j doubles —
  // should occupy at most half of L2 so C/A traffic does not evict it:
  // tile_k * tile_j * 8 <= L2 / 2. 2 MiB @ tile_j=1024 -> 128, the default.
  tuning.tile_k = std::clamp<std::int64_t>(
      FloorPow2(l2 / (2 * 8 * tuning.tile_j)), 16, 1024);
  // Blocked-FW phase-3 updates touch three fw_block^2 tiles at once; keep
  // that working set in half of L2 (capped by a quarter of L3 for
  // small-outer-cache machines): 3 * fw_block^2 * 8 <= min(L2/2, L3/4).
  const std::int64_t fw_budget = std::min(l2 / 2, l3 / 4);
  std::int64_t fw = 64;
  while (3 * (2 * fw) * (2 * fw) * 8 <= fw_budget && fw < 512) fw *= 2;
  tuning.fw_block = fw;

  tuning.auto_tuned = true;
  return tuning;
}

namespace {

/// Bitwise lock check for a candidate geometry: under every semiring, the
/// tiled kernel with this geometry (and the caller's ISA) must reproduce the
/// scalar i-k-j oracle exactly on a seeded odd-shaped problem. A geometry
/// that fails (there is none by construction, but the tuner must not trust
/// construction) is rejected from the race.
bool GeometryKeepsBitwiseLock(const KernelTuning& candidate,
                              std::uint64_t seed) {
  constexpr std::int64_t kM = 67, kN = 93, kK = 81;
  const SemiringId rings[] = {SemiringId::kMinPlus, SemiringId::kBoolean,
                              SemiringId::kMaxMin, SemiringId::kMaxTimes};
  bool ok = true;
  for (const SemiringId ring : rings) {
    // Seeded in-domain operands: finite weights with a sprinkle of
    // annihilators, canonicalized per semiring by SemiringAdjacency-style
    // mapping (inline here to keep shapes rectangular).
    Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(ring));
    auto fill = [&](DenseBlock& block) {
      for (std::int64_t i = 0; i < block.size(); ++i) {
        const double u = rng.NextDouble();
        double v;
        switch (ring) {
          case SemiringId::kMinPlus:
            v = u < 0.2 ? kInf : rng.NextDouble(0.0, 50.0);
            break;
          case SemiringId::kBoolean:
            v = u < 0.5 ? 0.0 : 1.0;
            break;
          case SemiringId::kMaxMin:
            v = u < 0.2 ? -kInf : rng.NextDouble(0.0, 50.0);
            break;
          case SemiringId::kMaxTimes:
          default:
            v = u < 0.2 ? 0.0 : rng.NextDouble();
            break;
        }
        block.mutable_data()[i] = v;
      }
    };
    DenseBlock a(kM, kK, 0.0), b(kK, kN, 0.0), c(kM, kN, 0.0);
    fill(a);
    fill(b);
    fill(c);
    DenseBlock oracle = c;

    KernelTuning tuning = candidate;
    tuning.semiring = ring;
    tuning.pool = nullptr;
    MinPlusAccumulateRaw(kM, kN, kK, a.data(), kK, b.data(), kN,
                         c.mutable_data(), kN, tuning);

    WithSemiring(ring, [&](auto s) {
      using S = decltype(s);
      SemiringProductAccumulate<S>(a, b, oracle);
    });
    if (std::memcmp(c.data(), oracle.data(),
                    static_cast<std::size_t>(c.size()) * sizeof(double)) !=
        0) {
      ok = false;
      break;
    }
  }
  return ok;
}

/// Best-of-three wall time of a b=512 fused min-plus update under the
/// candidate geometry.
double RaceGeometry(const KernelTuning& candidate, std::uint64_t seed) {
  constexpr std::int64_t kB = 512;
  Xoshiro256 rng(seed);
  DenseBlock a(kB, kB, 0.0), b(kB, kB, 0.0);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    a.mutable_data()[i] = rng.NextDouble(0.0, 100.0);
    b.mutable_data()[i] = rng.NextDouble(0.0, 100.0);
  }
  KernelTuning tuning = candidate;
  tuning.semiring = SemiringId::kMinPlus;
  tuning.pool = nullptr;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    DenseBlock c(kB, kB, kInf);
    WallTimer timer;
    MinPlusAccumulateRaw(kB, kB, kB, a.data(), kB, b.data(), kB,
                         c.mutable_data(), kB, tuning);
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

struct AutoTuneMemo {
  std::uint64_t seed = 0;
  bool confirm_race = false;
  std::int64_t tile_j = 0;
  std::int64_t tile_k = 0;
  std::int64_t fw_block = 0;
  bool valid = false;
};

std::mutex g_autotune_mutex;
AutoTuneMemo g_autotune_memo;

}  // namespace

void ResetAutoTuneMemoForTest() {
  std::lock_guard<std::mutex> lock(g_autotune_mutex);
  g_autotune_memo = AutoTuneMemo{};
}

KernelTuning KernelTuning::AutoTune(const KernelTuning& base,
                                    std::uint64_t seed, bool confirm_race) {
  std::lock_guard<std::mutex> lock(g_autotune_mutex);
  KernelTuning result = base;
  if (g_autotune_memo.valid && g_autotune_memo.seed == seed &&
      g_autotune_memo.confirm_race == confirm_race) {
    result.tile_j = g_autotune_memo.tile_j;
    result.tile_k = g_autotune_memo.tile_k;
    result.fw_block = g_autotune_memo.fw_block;
    result.auto_tuned = true;
    return result;
  }

  const CacheHierarchy caches = DetectCacheHierarchy(seed);
  KernelTuning derived = DeriveKernelTuning(caches, result);

  if (confirm_race) {
    // Neighbourhood race: the derived geometry against its halved/doubled
    // tile variants. Every candidate must keep the bitwise lock before it
    // may run; the derived geometry breaks ties (candidates are raced in
    // deterministic order and a strictly faster time is required to
    // dethrone an earlier one).
    std::vector<KernelTuning> candidates;
    auto push = [&](std::int64_t tj, std::int64_t tk) {
      KernelTuning c = derived;
      c.tile_j = std::clamp<std::int64_t>(tj, 128, 8192);
      c.tile_k = std::clamp<std::int64_t>(tk, 16, 1024);
      for (const KernelTuning& seen : candidates) {
        if (seen.tile_j == c.tile_j && seen.tile_k == c.tile_k) return;
      }
      candidates.push_back(c);
    };
    push(derived.tile_j, derived.tile_k);
    push(derived.tile_j / 2, derived.tile_k);
    push(derived.tile_j * 2, derived.tile_k);
    push(derived.tile_j, derived.tile_k / 2);
    push(derived.tile_j, derived.tile_k * 2);

    double best_time = std::numeric_limits<double>::infinity();
    KernelTuning best = derived;
    bool have_best = false;
    for (const KernelTuning& candidate : candidates) {
      if (!GeometryKeepsBitwiseLock(candidate, seed)) continue;
      const double t = RaceGeometry(candidate, seed);
      if (!have_best || t < best_time) {
        best_time = t;
        best = candidate;
        have_best = true;
      }
    }
    derived = best;  // all-rejected (impossible) keeps the derived geometry
  }

  g_autotune_memo = AutoTuneMemo{seed, confirm_race, derived.tile_j,
                                 derived.tile_k, derived.fw_block, true};
  result.tile_j = derived.tile_j;
  result.tile_k = derived.tile_k;
  result.fw_block = derived.fw_block;
  result.auto_tuned = true;
  return result;
}

}  // namespace apspark::linalg
