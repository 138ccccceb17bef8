// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apsp/api.h"
#include "common/time_utils.h"
#include "obs/trace.h"

namespace apspark::bench {

/// Honours APSPARK_TRACE_JSON: when the variable names a path, the whole
/// harness run is captured as a Chrome trace-event file written there on
/// destruction. Unset (the default, and every regression-gated run) leaves
/// tracing disabled, so the published numbers never include tracer cost.
class TraceGuard {
 public:
  TraceGuard() {
    const char* path = std::getenv("APSPARK_TRACE_JSON");
    if (path != nullptr && *path != '\0') {
      path_ = path;
      obs::Tracer::Get().Start();
    }
  }
  ~TraceGuard() {
    if (path_.empty()) return;
    auto& tracer = obs::Tracer::Get();
    tracer.Stop();
    if (tracer.WriteChromeJson(path_)) {
      std::fprintf(stderr, "trace: %zu events written to %s\n",
                   tracer.EventCount(), path_.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", path_.c_str());
    }
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  std::string path_;
};

/// n^3 / (seconds * cores) in Gops — the paper's weak-scaling metric
/// (§5.4), normalized per core.
inline double GopsPerCore(std::int64_t n, double seconds, int cores) {
  if (seconds <= 0) return 0;
  const double nd = static_cast<double>(n);
  return nd * nd * nd / seconds / static_cast<double>(cores) / 1e9;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline const char* PartitionerLabel(apsp::PartitionerKind kind) {
  return kind == apsp::PartitionerKind::kMultiDiagonal ? "MD" : "PH";
}

}  // namespace apspark::bench
