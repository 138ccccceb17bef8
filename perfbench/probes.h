// Single-layer probes for the traced run: kernel-counter snapshots and the
// per-call kernel timings that turn them into CPU seconds, plus cold and
// resident block-store fetches and the fork-join cost of a one-query batch.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "store/distance_service.h"

namespace perfbench {

/// kernel_invocations_total summed per (kernel, isa), e.g.
/// {"accumulate", "avx512"} -> 1296, over all semirings and tile labels.
struct KernelCounts {
  std::map<std::pair<std::string, std::string>, std::int64_t> calls;

  std::int64_t Get(const std::string& kernel, const std::string& isa) const;
  std::int64_t Kernel(const std::string& kernel) const;  // all ISAs
  std::int64_t Total() const;
  std::int64_t Scalar() const;
  KernelCounts operator-(const KernelCounts& base) const;
};

/// Reads the process-global counters from obs::Registry.
KernelCounts SnapshotKernelCounts();

/// Calls the solve made, split by shape: b x b x b accumulates (SIMD and
/// scalar path), b x b closures, and b x b x k rectangular panel updates.
struct KernelAttribution {
  double cpu_s = 0;  // sum over shapes of count x measured per-call time
  double gop = 0;    // 2 m n k operations per call (one add, one min)
};

/// Times MinPlusAccumulateRaw, FloydWarshallRaw and (k > 0)
/// MinPlusUpdateRect on b-sized blocks under the resolved ISA and tiles,
/// then attributes the solve's counter deltas to those shapes.
/// `rect_calls` is the number of MinPlusUpdateRect calls the solve made.
KernelAttribution AttributeKernels(const KernelCounts& solve, std::int64_t b,
                                   std::int64_t k, std::int64_t rect_calls);

/// Median single-thread wall time of a cold Fetch: a second BlockStore over
/// `dir` whose cache cap is below one block, so every fetch reads, verifies
/// and decodes a block file (page cache warm).
double ColdFetchSeconds(const std::string& dir);

/// Median wall time of a Fetch of a resident block.
double ResidentFetchSeconds(const std::string& dir);

/// Median wall time of a one-query DistanceBatch on a resident block: the
/// service's thread-pool fork-join with no lookup work behind it.
double OneQueryBatchSeconds(apspark::store::DistanceService& service,
                            const apspark::store::DistanceService::Query& q);

/// Median of `values` (which it sorts). 0 when empty.
double Median(std::vector<double>& values);

}  // namespace perfbench
