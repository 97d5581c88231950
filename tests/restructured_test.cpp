// Tests for the high-level restructured-loop adapter on real threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "casc/common/check.hpp"
#include "casc/rt/restructured.hpp"

namespace {

using casc::common::CheckFailure;
using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::RestructuredLoop;

struct GatherWorkload {
  std::vector<double> a;
  std::vector<std::uint32_t> ij;

  explicit GatherWorkload(std::uint64_t n) : a(n), ij(n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      a[i] = static_cast<double>(i) * 0.25;
      ij[i] = static_cast<std::uint32_t>((i * 48271) % n);
    }
  }
};

class RestructuredThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(RestructuredThreads, MatchesSequentialBitForBit) {
  const std::uint64_t n = 4096;
  GatherWorkload w(n);
  std::vector<double> want(n), got(n);
  for (std::uint64_t i = 0; i < n; ++i) want[i] = w.a[w.ij[i]] * 2.0 + 1.0;

  CascadeExecutor ex(ExecutorConfig{GetParam()});
  RestructuredLoop<double> loop(ex, 256);
  loop.run(
      n, [&](std::uint64_t i) { return w.a[w.ij[i]]; },
      [&](std::uint64_t i, double v) { got[i] = v * 2.0 + 1.0; });
  EXPECT_EQ(got, want);
  const auto& stats = loop.last_run_stats();
  EXPECT_EQ(stats.chunks, 16u);
  EXPECT_EQ(stats.chunks_staged + stats.chunks_fallback, stats.chunks);
}

TEST_P(RestructuredThreads, LoopCarriedConsumerStaysSequential) {
  // The consume side carries a dependence; only strict sequential order
  // produces the right result.
  const std::uint64_t n = 2000;
  GatherWorkload w(n);
  double want_acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) want_acc = want_acc * 0.5 + w.a[w.ij[i]];

  CascadeExecutor ex(ExecutorConfig{GetParam()});
  RestructuredLoop<double> loop(ex, 128);
  double acc = 0;
  loop.run(
      n, [&](std::uint64_t i) { return w.a[w.ij[i]]; },
      [&](std::uint64_t, double v) { acc = acc * 0.5 + v; });
  EXPECT_DOUBLE_EQ(acc, want_acc);
}

TEST_P(RestructuredThreads, ReusableAcrossRuns) {
  const std::uint64_t n = 1024;
  GatherWorkload w(n);
  CascadeExecutor ex(ExecutorConfig{GetParam()});
  RestructuredLoop<double> loop(ex, 128);
  for (int round = 0; round < 3; ++round) {
    double sum = 0;
    loop.run(
        n, [&](std::uint64_t i) { return w.a[w.ij[i]]; },
        [&](std::uint64_t, double v) { sum += v; });
    double want = 0;
    for (std::uint64_t i = 0; i < n; ++i) want += w.a[w.ij[i]];
    EXPECT_DOUBLE_EQ(sum, want) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, RestructuredThreads,
                         ::testing::Values(1u, 2u, 4u));

TEST(Restructured, ZeroIterationsIsANoop) {
  CascadeExecutor ex(ExecutorConfig{2});
  RestructuredLoop<int> loop(ex, 16);
  int calls = 0;
  loop.run(
      0, [&](std::uint64_t) { return 1; }, [&](std::uint64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(loop.last_run_stats().chunks, 0u);
}

TEST(Restructured, RaggedLastChunkHandled) {
  CascadeExecutor ex(ExecutorConfig{2});
  RestructuredLoop<std::uint64_t> loop(ex, 64);
  const std::uint64_t n = 150;  // 2 full chunks + 22 iterations
  std::vector<std::uint64_t> got(n, 0);
  loop.run(
      n, [](std::uint64_t i) { return i * 3; },
      [&](std::uint64_t i, std::uint64_t v) { got[i] = v; });
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], i * 3);
  EXPECT_EQ(loop.last_run_stats().chunks, 3u);
}

TEST(Restructured, RejectsZeroChunk) {
  CascadeExecutor ex(ExecutorConfig{2});
  EXPECT_THROW(RestructuredLoop<int>(ex, 0), CheckFailure);
}

TEST(Restructured, StagedFractionReported) {
  CascadeExecutor ex(ExecutorConfig{4});
  RestructuredLoop<int> loop(ex, 32);
  loop.run(
      32 * 8, [](std::uint64_t i) { return static_cast<int>(i); },
      [](std::uint64_t, int) {});
  const auto& stats = loop.last_run_stats();
  EXPECT_GE(stats.staged_fraction(), 0.0);
  EXPECT_LE(stats.staged_fraction(), 1.0);
}

}  // namespace
