// Measurement plumbing shared by every workload: sample summaries, the
// metric sheet a run prints, and the in-memory span log of a traced run.
//
// Every span is recorded from the benchmark's side of a public call into one
// layer of the program (parse, materialize, gate, run_*, checksum, svc
// send->reply), so the per-layer numbers need no instrumentation inside the
// program itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace casc::telemetry {
class EventLog;
}

namespace perfbench {

// ---- samples ----------------------------------------------------------------

/// Median of `v` (mean of the middle pair for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The highest order statistic of `v` that still has at least `beyond`
/// samples above it — the tail a run of this size can support.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< share of samples at or below `value`, in %
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Seconds since an arbitrary steady-clock origin.
[[nodiscard]] double now_s();

// ---- metrics ----------------------------------------------------------------

/// Which result line a metric belongs to: the end-to-end line (untraced
/// run), the per-layer line (traced run), or the human-readable report only.
enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kInfo;
  std::string note;  ///< shown in the report beside the value
};

class Sheet {
 public:
  void add(std::string name, double value, std::string unit, Kind kind,
           std::string note = {});

  /// Prints every metric as "metric <name> <value> <unit>  # note".
  void print_report() const;

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"} with
  /// the metrics of `kind`.
  void print_result(Kind kind, std::uint64_t attempted,
                    std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// ---- spans ------------------------------------------------------------------

/// One span: a timed call into `layer`, part of operation `op`.
struct Span {
  std::string name;
  std::string layer;
  std::uint64_t op = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t tid = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans kept in memory for the whole run and written once at the end.
/// Given an EventLog, spans are stamped on its clock, so the caller-side
/// spans and the runtime's worker phases share one time axis.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, const casc::telemetry::EventLog* clock = nullptr);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Opens a span and returns its index (or -1 when disabled).
  int open(std::string name, std::string layer, std::uint64_t op, int parent = -1);
  void close(int index);
  /// Records an already-measured span.
  void add(Span span);

  /// Per layer: total span time minus the part covered by direct children
  /// (self time), in seconds, sorted by layer name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds() const;

  /// Writes the spans (and the EventLog's retained worker phases) as Trace
  /// Event JSON, openable in Perfetto / chrome://tracing.
  void write_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  const casc::telemetry::EventLog* log_ = nullptr;
  std::uint64_t origin_ns_ = 0;
  std::vector<Span> spans_;
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
