// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

/// printf into a string: one JSON object for WriteBenchJson.
[[gnu::format(printf, 1, 2)]] inline std::string Record(const char* fmt,
                                                        ...) {
  va_list args;
  va_start(args, fmt);
  va_list sized;
  va_copy(sized, args);
  const int length = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  std::string out(static_cast<std::size_t>(length > 0 ? length : 0), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// Writes {"benchmark": ..., "results": [...]} with one record per line to
/// the path in APSPARK_BENCH_JSON, else to `default_path`. This file is what
/// bench/check_gates.py reads, so a failed write is reported and returns
/// false: the caller must exit non-zero rather than leave a stale or
/// missing file to be gated.
[[nodiscard]] inline bool WriteBenchJson(
    const char* benchmark, const std::vector<std::string>& records,
    const char* default_path) {
  const char* env = std::getenv("APSPARK_BENCH_JSON");
  const std::string path = env != nullptr && *env != '\0' ? env : default_path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"results\": [\n",
                      benchmark) > 0;
    for (std::size_t i = 0; ok && i < records.size(); ++i) {
      ok = std::fprintf(f, "    %s%s\n", records[i].c_str(),
                        i + 1 == records.size() ? "" : ",") > 0;
    }
    ok = ok && std::fprintf(f, "  ]\n}\n") > 0;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nresults written to %s\n", path.c_str());
  return true;
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
