// Benchmark-side host spans for the traced run.
//
// The program's own host-clock spans cover only a few calls, so the traced
// run times each layer from the outside: every call the benchmark makes into
// a module's public API opens a span here (name, start, end, parent, id).
// Spans stay in memory; at the end they are exported into obs::Tracer's
// host-clock track next to the program's sim-clock spans and written as one
// Chrome-trace file, and SelfTimes() folds them into a per-name table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  // index into spans(), -1 for a root
    std::int64_t id;      // batch number, -1 when not a batch
    std::string args;     // extra JSON members for the exported event
  };

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time covered by child spans
  };

  /// Opens a span as a child of the innermost open span.
  std::size_t Begin(const char* name, std::int64_t id = -1,
                    std::string args = {}) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({name, apspark::obs::Tracer::RealNowNs(), 0, parent, id,
                      std::move(args)});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Adds a closed span measured elsewhere, as a child of the innermost
  /// open span.
  void Record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({name, start_ns, end_ns, parent, -1, {}});
  }

  /// Closes the innermost open span (spans nest strictly).
  void End() {
    spans_[open_.back()].end_ns = apspark::obs::Tracer::RealNowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span into the tracer's host-clock track. The tracer must
  /// be running.
  void ExportTo(apspark::obs::Tracer& tracer) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // The tracer takes the args object's body, without braces.
      std::string args = "\"span\":" + std::to_string(i) +
                         ",\"parent\":" + std::to_string(s.parent);
      if (s.id >= 0) args += ",\"id\":" + std::to_string(s.id);
      if (!s.args.empty()) args += "," + s.args;
      tracer.RealSpan(s.name, s.start_ns, s.end_ns, std::move(args));
    }
  }

  /// Per-name count, total and self time, largest self time first.
  std::vector<SelfTime> SelfTimes() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += Dur(s);
    }
    std::map<std::string, SelfTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SelfTime& row = by_name[spans_[i].name];
      row.name = spans_[i].name;
      row.count += 1;
      row.total_s += Dur(spans_[i]);
      row.self_s += Dur(spans_[i]) - child_s[i];
    }
    std::vector<SelfTime> rows;
    for (auto& [name, row] : by_name) rows.push_back(row);
    std::sort(rows.begin(), rows.end(),
              [](const SelfTime& a, const SelfTime& b) {
                return a.self_s > b.self_s;
              });
    return rows;
  }

 private:
  static double Dur(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null log (the untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t id = -1,
             std::string args = {})
      : log_(log) {
    if (log_ != nullptr) log_->Begin(name, id, std::move(args));
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench
