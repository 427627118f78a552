// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's main thread, around its own
// calls into the library's public API (one span per call, named
// "<layer>.<call>"). Nothing is written until the run ends: the whole set is
// dumped as one Chrome trace. Recording is off unless enable() was called,
// so the untraced (timed) runs pay one branch per span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = -1;  // -1 while open
  int parent = -1;      // index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  static Tracer& instance();

  /// Start recording; every span of this run carries `run_id`.
  void enable(uint64_t run_id);
  void disable();

  /// Open a span as a child of the innermost open one; returns its index
  /// (-1 when disabled).
  int begin(const std::string& name);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void clear();

  /// Per-layer self time in seconds: each span's duration minus the part
  /// covered by its direct children, summed by the name prefix before '.'.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON ("X" events). `other_data_json` is a JSON
  /// object copied verbatim into "otherData" (run provenance).
  std::string chrome_trace_json(const std::string& other_data_json) const;

 private:
  bool enabled_ = false;
  uint64_t run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : index_(Tracer::instance().begin(name)) {}
  ~ScopedSpan() { Tracer::instance().end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
