// Randomized property tests for the restructured-loop hot path: whatever mix
// of staged drains and jump-out fallbacks a run ends up with, the observable
// results must be bit-identical to the plain sequential loop
// `for i: consume(i, gather(i))`.
// The chaos variants add seeded helper faults (kill / stall / corrupt
// staging) on top: the fail-soft runtime must absorb every schedule with the
// same bit-identical outcome.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "casc/rt/fault_injection.hpp"
#include "casc/rt/restructured.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::RestructuredLoop;
using casc::rt::RestructuredOptions;

struct RandomWorkload {
  std::vector<double> a;
  std::vector<std::uint32_t> ij;

  RandomWorkload(std::uint64_t n, std::uint32_t seed) : a(n), ij(n) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> val(-1e6, 1e6);
    std::uniform_int_distribution<std::uint32_t> idx(0, static_cast<std::uint32_t>(n - 1));
    for (std::uint64_t i = 0; i < n; ++i) {
      a[i] = val(rng);
      ij[i] = idx(rng);
    }
  }
};

/// The loop-carried recurrence makes any ordering or staleness bug visible in
/// the final bits: acc depends on every operand in exact sequence.
double sequential_reference(const RandomWorkload& w, std::vector<double>& out) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < w.a.size(); ++i) {
    const double v = w.a[w.ij[i]];
    acc = acc * 0.75 + v;
    out[i] = acc;
  }
  return acc;
}

void run_and_compare(CascadeExecutor& ex, RestructuredOptions options,
                     const RandomWorkload& w) {
  const std::uint64_t n = w.a.size();
  std::vector<double> want(n);
  const double want_acc = sequential_reference(w, want);

  RestructuredLoop<double> loop(ex, options);
  std::vector<double> got(n, 0.0);
  double acc = 0.0;
  loop.run(
      n, [&](std::uint64_t i) { return w.a[w.ij[i]]; },
      [&](std::uint64_t i, double v) {
        acc = acc * 0.75 + v;
        got[i] = acc;
      });

  // Bit-identical, not approximately equal: the cascade must perform the
  // exact same double operations in the exact same order.
  EXPECT_EQ(acc, want_acc);
  EXPECT_EQ(got, want);
  const auto& stats = loop.last_run_stats();
  EXPECT_EQ(stats.chunks_staged + stats.chunks_fallback, stats.chunks);
}

/// Names each grid point by its thread count (t1, t2, t4).
std::string threads_name(const ::testing::TestParamInfo<unsigned>& info) {
  return "t" + std::to_string(info.param);
}

class RestructuredProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RestructuredProperty, StagedAndFallbackPathsAreBitIdentical) {
  const unsigned threads = GetParam();
  CascadeExecutor ex(ExecutorConfig{threads});
  std::mt19937 rng(0xC45Cu + threads * 131u);
  for (int trial = 0; trial < 8; ++trial) {
    // Sizes straddle the chunk boundary cases: sub-chunk, exact multiples,
    // ragged tails.
    std::uniform_int_distribution<std::uint64_t> size(1, 5000);
    std::uniform_int_distribution<std::uint64_t> chunk(1, 512);
    const std::uint64_t n = size(rng);
    RandomWorkload w(n, rng());
    RestructuredOptions options;
    options.iters_per_chunk = chunk(rng);
    run_and_compare(ex, options, w);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RestructuredProperty, ::testing::Values(1u, 2u, 4u),
                         threads_name);

class RestructuredChaosProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RestructuredChaosProperty, ChaosSchedulesStayBitIdentical) {
  // Seeded chaos over the same grid: helper throws, stalls, and
  // corrupt-staging commits at random chunks.  Faulted chunks distrust their
  // staging, reclaimed chunks re-resolve through gather(), and the final
  // bits must never change.  Instant retry keeps the faults coming until
  // quarantine, so every degradation path gets exercised.
  const unsigned threads = GetParam();
  casc::rt::ExecutorConfig cfg{threads};
  cfg.resilience.retry_backoff = std::chrono::milliseconds(0);
  CascadeExecutor ex(cfg);
  std::mt19937 rng(0xFA17u + threads * 131u);
  for (int trial = 0; trial < 6; ++trial) {
    std::uniform_int_distribution<std::uint64_t> size(1, 5000);
    std::uniform_int_distribution<std::uint64_t> chunk(1, 512);
    const std::uint64_t n = size(rng);
    RandomWorkload w(n, rng());
    RestructuredOptions options;
    options.iters_per_chunk = chunk(rng);
    const std::uint64_t chunks =
        (n + options.iters_per_chunk - 1) / options.iters_per_chunk;
    casc::rt::ChaosOptions chaos_opt;
    chaos_opt.fault_rate = 0.25;
    chaos_opt.max_stall = std::chrono::milliseconds(1);
    const casc::rt::ChaosPlan plan =
        casc::rt::ChaosPlan::make(rng(), chunks, options.iters_per_chunk, chaos_opt);
    options.chaos = &plan;
    run_and_compare(ex, options, w);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RestructuredChaosProperty,
                         ::testing::Values(1u, 2u, 4u), threads_name);

TEST(RestructuredChaos, DegradationShowsUpInStats) {
  // A guaranteed-fault schedule (rate 1.0) must leave tracks: the run
  // completes bit-identically AND reports itself degraded.
  casc::rt::ExecutorConfig cfg{2};
  cfg.resilience.retry_backoff = std::chrono::milliseconds(0);
  CascadeExecutor ex(cfg);
  const std::uint64_t n = 4096;
  RandomWorkload w(n, 99);
  RestructuredOptions options;
  options.iters_per_chunk = 128;
  casc::rt::ChaosOptions chaos_opt;
  chaos_opt.fault_rate = 1.0;
  chaos_opt.allow_stall = false;  // throws + corrupt-staging only: no waiting
  const casc::rt::ChaosPlan plan = casc::rt::ChaosPlan::make(
      3, n / options.iters_per_chunk, options.iters_per_chunk, chaos_opt);
  options.chaos = &plan;

  std::vector<double> want(n);
  const double want_acc = sequential_reference(w, want);
  RestructuredLoop<double> loop(ex, options);
  // A helper whose token already arrived is legitimately skipped, so one run
  // COULD theoretically dodge every planned fault; a handful cannot.
  bool saw_degraded = false;
  for (int attempt = 0; attempt < 5 && !saw_degraded; ++attempt) {
    std::vector<double> got(n, 0.0);
    double acc = 0.0;
    loop.run(
        n, [&](std::uint64_t i) { return w.a[w.ij[i]]; },
        [&](std::uint64_t i, double v) {
          acc = acc * 0.75 + v;
          got[i] = acc;
        });
    ASSERT_EQ(acc, want_acc);
    ASSERT_EQ(got, want);
    const auto& stats = loop.last_run_stats();
    saw_degraded = stats.degraded && stats.helper_faults >= 1;
  }
  EXPECT_TRUE(saw_degraded);
}

}  // namespace
