#include "spans.hpp"

#include <chrono>
#include <cstdio>

#include "util/json.hpp"

namespace perfbench {

namespace {

int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(uint64_t run_id) {
  enabled_ = true;
  run_id_ = run_id;
}

void Tracer::disable() { enabled_ = false; }

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = now_us();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_us = now_us();
  // Spans are scoped, so the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::clear() {
  spans_.clear();
  open_.clear();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<int64_t> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_us >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(s.end_us - s.start_us - child_us[i]) * 1e-6;
  }
  return out;
}

std::string Tracer::chrome_trace_json(const std::string& other_data_json) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    if (out.back() != '[') out += ',';
    out += "{\"name\":\"" + snntest::util::json_escape(s.name) + "\",\"cat\":\"" +
           snntest::util::json_escape(s.name.substr(0, s.name.find('.'))) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%lld,\"dur\":%lld,"
                  "\"args\":{\"span_id\":%zu,\"parent\":%d,\"run_id\":\"%016llx\"}}",
                  static_cast<long long>(s.start_us), static_cast<long long>(s.end_us - s.start_us),
                  i, s.parent, static_cast<unsigned long long>(run_id_));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":" + other_data_json + "}";
  return out;
}

}  // namespace perfbench
