// The benchmark's workloads.  Each one generates its program inputs from
// the seed, sets up (several times; setup_s is their median), measures for
// the requested seconds, checks every output against the sequential
// reference, and fills a metric sheet.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

/// A run sets up at least kSetups times; a workload with a set-up budget
/// keeps setting up, to at most kMaxSetups, until the budget is spent.
/// setup_s is the median.
inline constexpr int kSetups = 3;
inline constexpr int kMaxSetups = 25;
/// Every timing sample set has at least this many samples, so that on the
/// slowest workload the tail metric (10 samples beyond it) still sits at or
/// above the median.
inline constexpr std::size_t kMinSamples = 21;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where trace files and the svc socket go, relative to the checkout.
  std::string out_dir = ".bench_build";
  /// Self-test of the correctness gate: corrupt one reference digest, which
  /// must surface as a failed operation.
  bool corrupt_reference = false;
  /// One set-up and a few samples: the self-test's short mode.
  bool short_mode = false;

  [[nodiscard]] std::size_t min_samples() const { return short_mode ? 3 : kMinSamples; }
  /// True while another set-up is due after `done` of them took `elapsed`.
  [[nodiscard]] bool more_setups(int done, double elapsed, double budget) const {
    if (short_mode) return done < 1;
    return done < kSetups || (done < kMaxSetups && elapsed < budget);
  }
};

struct Outcome {
  Sheet sheet;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Thread and connection counts, printed with the run's provenance.
  unsigned threads = 0;
  unsigned connections = 0;
};

Outcome run_parmvr_chain(const Options& opt);
Outcome run_spmv_prefetch(const Options& opt);
Outcome run_svc_jobs(const Options& opt);

}  // namespace perfbench
