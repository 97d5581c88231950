#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

#include "casc/telemetry/event_log.hpp"
#include "casc/telemetry/json.hpp"
#include "casc/telemetry/trace_json.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Index n-1-beyond has exactly `beyond` samples above it; with fewer
  // samples than that no order statistic qualifies, and the minimum (the
  // closest there is) is reported with its percentile so the reader sees it.
  const std::size_t idx = v.size() > beyond ? v.size() - 1 - beyond : 0;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Sheet::add(std::string name, double value, std::string unit, Kind kind,
                std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), kind, std::move(note)});
}

void Sheet::print_report() const {
  for (const Metric& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", m.value);
    std::cout << "metric " << m.name << ' ' << buf << ' ' << m.unit;
    if (!m.note.empty()) std::cout << "  # " << m.note;
    std::cout << '\n';
  }
}

void Sheet::print_result(Kind kind, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream os;
  casc::telemetry::JsonWriter w(os, 0);
  w.begin_object();
  w.key("correct");
  w.value(failed == 0);
  w.key("attempted");
  w.value(attempted);
  w.key("failed");
  w.value(failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    if (m.kind != kind) continue;
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::string line = os.str();
  line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
  std::cout << line << std::endl;
}

SpanLog::SpanLog(bool enabled, const casc::telemetry::EventLog* clock)
    : enabled_(enabled), log_(clock) {
  origin_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SpanLog::now_ns() const {
  if (log_ != nullptr) return log_->now_ns();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<std::uint64_t>(ns) - origin_ns_;
}

int SpanLog::open(std::string name, std::string layer, std::uint64_t op, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.op = op;
  s.parent = parent;
  s.begin_ns = now_ns();
  s.end_ns = s.begin_ns;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanLog::add(Span span) {
  if (enabled_) spans_.push_back(std::move(span));
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].begin_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    by_layer[spans_[i].layer] += static_cast<double>(self) * 1e-9;
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanLog::write_trace(const std::string& path) const {
  casc::telemetry::TraceWriter tw;
  tw.set_process_name(0, "perfbench (caller-side spans)");
  for (const Span& s : spans_) {
    casc::telemetry::TraceSlice slice;
    slice.name = s.name + " op=" + std::to_string(s.op);
    slice.category = s.layer;
    slice.pid = 0;
    slice.tid = s.tid;
    slice.ts_us = static_cast<double>(s.begin_ns) * 1e-3;
    slice.dur_us = static_cast<double>(s.end_ns - s.begin_ns) * 1e-3;
    tw.add_slice(std::move(slice));
  }
  if (log_ != nullptr) tw.append_event_log(*log_, 1, "cascade runtime workers");
  tw.save(path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
