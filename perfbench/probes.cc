#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "obs/metrics_registry.h"
#include "store/block_store.h"

namespace perfbench {

using namespace apspark;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Value of label `key` in a rendered label body (`a="x",b="y"`).
std::string LabelValue(const std::string& labels, const std::string& key) {
  const std::string needle = key + "=\"";
  const auto at = labels.find(needle);
  if (at == std::string::npos) return {};
  const auto begin = at + needle.size();
  return labels.substr(begin, labels.find('"', begin) - begin);
}

linalg::DenseBlock RandomBlock(std::int64_t rows, std::int64_t cols,
                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::DenseBlock block(rows, cols, 0.0);
  for (double& v : block) v = 1.0 + static_cast<double>(rng.NextBounded(100));
  return block;
}

struct Probe {
  double seconds_per_call = 0;
  KernelCounts delta;  // counters one call adds
};

/// Times `call` `reps` times (after `prepare`, untimed) and records the
/// counter delta of a single call.
Probe RunProbe(const std::function<void()>& prepare,
               const std::function<void()>& call, int reps) {
  Probe probe;
  prepare();
  const KernelCounts before = SnapshotKernelCounts();
  call();
  probe.delta = SnapshotKernelCounts() - before;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const auto start = Clock::now();
    call();
    times.push_back(SecondsSince(start));
  }
  probe.seconds_per_call = Median(times);
  return probe;
}

}  // namespace

std::int64_t KernelCounts::Get(const std::string& kernel,
                               const std::string& isa) const {
  const auto it = calls.find({kernel, isa});
  return it == calls.end() ? 0 : it->second;
}

std::int64_t KernelCounts::Kernel(const std::string& kernel) const {
  std::int64_t total = 0;
  for (const auto& [key, count] : calls) {
    if (key.first == kernel) total += count;
  }
  return total;
}

std::int64_t KernelCounts::Total() const {
  std::int64_t total = 0;
  for (const auto& [key, count] : calls) total += count;
  return total;
}

std::int64_t KernelCounts::Scalar() const {
  std::int64_t total = 0;
  for (const auto& [key, count] : calls) {
    if (key.second == "scalar") total += count;
  }
  return total;
}

KernelCounts KernelCounts::operator-(const KernelCounts& base) const {
  KernelCounts out = *this;
  for (const auto& [key, count] : base.calls) out.calls[key] -= count;
  return out;
}

KernelCounts SnapshotKernelCounts() {
  static const std::string kPrefix = "kernel_invocations_total{";
  KernelCounts counts;
  std::istringstream text(obs::Registry::Global().ToPrometheus());
  std::string line;
  while (std::getline(text, line)) {
    if (line.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    const auto close = line.find('}');
    const std::string labels =
        line.substr(kPrefix.size(), close - kPrefix.size());
    counts.calls[{LabelValue(labels, "kernel"), LabelValue(labels, "isa")}] +=
        std::stoll(line.substr(close + 2));
  }
  return counts;
}

KernelAttribution AttributeKernels(const KernelCounts& solve, std::int64_t b,
                                   std::int64_t k, std::int64_t rect_calls) {
  KernelAttribution out;
  if (solve.Total() == 0) return out;
  constexpr int kReps = 5;
  const std::string isa =
      linalg::SimdIsaName(linalg::ResolveSimdIsa(linalg::GetKernelTuning().isa));
  const linalg::DenseBlock a = RandomBlock(b, b, 1);
  const linalg::DenseBlock bb = RandomBlock(b, b, 2);
  linalg::DenseBlock c = RandomBlock(b, b, 3);
  const auto accumulate = [&] {
    linalg::MinPlusAccumulateRaw(b, b, b, a.data(), b, bb.data(), b,
                                 c.mutable_data(), b);
  };
  const auto nothing = [] {};

  // Residual per (kernel, isa) class once nested and rect calls are taken
  // out; what is left are plain b x b x b accumulates.
  KernelCounts residual = solve;
  const double cube = static_cast<double>(b) * b * b;

  const std::int64_t closures = solve.Kernel("closure");
  if (closures > 0) {
    linalg::DenseBlock work(b, b);
    const Probe closure = RunProbe(
        [&] { work = a; },
        [&] { linalg::FloydWarshallRaw(b, work.mutable_data(), b); }, kReps);
    out.cpu_s += static_cast<double>(closures) * closure.seconds_per_call;
    out.gop += static_cast<double>(closures) * cube;
    // A blocked closure issues its own accumulates; they are part of the
    // closure's measured time.
    for (const auto& [key, count] : closure.delta.calls) {
      residual.calls[key] -= closures * count;
    }
  }
  if (k > 0 && rect_calls > 0) {
    const linalg::DenseBlock panel = RandomBlock(b, k, 4);
    linalg::DenseBlock out_panel = RandomBlock(b, k, 5);
    const Probe rect = RunProbe(
        nothing, [&] { linalg::MinPlusUpdateRect(a, panel, out_panel); },
        kReps);
    out.cpu_s += static_cast<double>(rect_calls) * rect.seconds_per_call;
    out.gop += static_cast<double>(rect_calls) * b * b * k;
    for (const auto& [key, count] : rect.delta.calls) {
      residual.calls[key] -= rect_calls * count;
    }
  }
  std::int64_t simd_calls = residual.Get("accumulate", isa);
  std::int64_t scalar_calls =
      isa == "scalar" ? 0 : residual.Get("accumulate", "scalar");
  if (simd_calls < 0 || scalar_calls < 0) {
    std::fprintf(stderr,
                 "perfbench: kernel attribution left a negative residual "
                 "(%lld %s, %lld scalar); clamped to 0\n",
                 static_cast<long long>(simd_calls), isa.c_str(),
                 static_cast<long long>(scalar_calls));
    simd_calls = std::max<std::int64_t>(simd_calls, 0);
    scalar_calls = std::max<std::int64_t>(scalar_calls, 0);
  }
  if (simd_calls > 0) {
    const Probe p = RunProbe(nothing, accumulate, kReps);
    out.cpu_s += static_cast<double>(simd_calls) * p.seconds_per_call;
  }
  if (scalar_calls > 0) {
    linalg::ScopedSimdIsa scalar(linalg::SimdIsa::kScalar);
    const Probe p = RunProbe(nothing, accumulate, kReps);
    out.cpu_s += static_cast<double>(scalar_calls) * p.seconds_per_call;
  }
  out.gop += static_cast<double>(simd_calls + scalar_calls) * cube;
  out.gop *= 2e-9;
  return out;
}

double ColdFetchSeconds(const std::string& dir) {
  store::BlockStore::Options options;
  options.cache_capacity_bytes = 1;  // below one block: every fetch misses
  auto opened = store::BlockStore::Open(dir, options);
  opened.status().CheckOk();
  store::BlockStore& bs = **opened;
  std::vector<double> times;
  for (const auto& entry : bs.manifest().entries) {
    if (entry.plane != store::Plane::kDistance) continue;
    const auto start = Clock::now();
    auto pin = bs.Fetch(entry.plane, entry.I, entry.J);
    pin.status().CheckOk();
    pin->Release();
    times.push_back(SecondsSince(start));
    if (times.size() == 256) break;
  }
  return Median(times);
}

double ResidentFetchSeconds(const std::string& dir) {
  constexpr int kRounds = 9;
  constexpr int kFetchesPerRound = 2000;
  auto opened = store::BlockStore::Open(dir);
  opened.status().CheckOk();
  store::BlockStore& bs = **opened;
  const auto& entry = bs.manifest().entries.front();
  bs.Fetch(entry.plane, entry.I, entry.J).status().CheckOk();  // load once
  std::vector<double> per_fetch;
  for (int r = 0; r < kRounds; ++r) {
    const auto start = Clock::now();
    for (int i = 0; i < kFetchesPerRound; ++i) {
      auto pin = bs.Fetch(entry.plane, entry.I, entry.J);
      if (!pin.ok()) pin.status().CheckOk();
    }
    per_fetch.push_back(SecondsSince(start) / kFetchesPerRound);
  }
  return Median(per_fetch);
}

double OneQueryBatchSeconds(store::DistanceService& service,
                            const store::DistanceService::Query& q) {
  constexpr int kCalls = 2000;
  const std::vector<store::DistanceService::Query> batch{q};
  service.DistanceBatch(batch).status().CheckOk();  // make it resident
  std::vector<double> times;
  times.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    const auto start = Clock::now();
    auto answer = service.DistanceBatch(batch);
    times.push_back(SecondsSince(start));
    answer.status().CheckOk();
  }
  return Median(times);
}

double Median(std::vector<double>& values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
