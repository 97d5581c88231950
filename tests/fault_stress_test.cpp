// Stress test for the abort/exception machinery: hammer the failure paths
// from every chunk position and thread count, interleaving failed and
// successful runs on the same executor, plus a randomized mixed-fault soak.
// The invariants under test: run() always returns or throws (never hangs),
// the first failure wins, and a failed run never poisons the next one.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "casc/common/rng.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/token.hpp"

namespace {

using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::FaultPlan;
using casc::rt::InjectedFault;
using casc::rt::TokenWatch;
using casc::rt::WatchdogExpired;

constexpr std::uint64_t kIters = 240;
constexpr std::uint64_t kChunkIters = 20;  // 12 chunks
constexpr std::uint64_t kChunks = kIters / kChunkIters;

void verify_clean_run(CascadeExecutor& ex) {
  std::uint64_t sum = 0;
  ex.run(kIters, kChunkIters, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) sum += i;
  });
  ASSERT_EQ(sum, kIters * (kIters - 1) / 2);
  ASSERT_FALSE(ex.last_run_stats().aborted);
}

class FaultStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(FaultStress, ThrowAtEveryChunkPosition) {
  CascadeExecutor ex(ExecutorConfig{GetParam()});
  for (std::uint64_t failing = 0; failing < kChunks; ++failing) {
    const FaultPlan plan = FaultPlan::throw_in_exec(failing, kChunkIters);
    try {
      ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {}));
      FAIL() << "expected InjectedFault at chunk " << failing;
    } catch (const InjectedFault& e) {
      ASSERT_EQ(e.chunk(), failing);
      ASSERT_EQ(ex.last_run_stats().first_failed_chunk, failing);
      ASSERT_EQ(ex.last_run_stats().chunks_executed, failing);
    }
    verify_clean_run(ex);  // a failed run must never poison the next
  }
}

TEST_P(FaultStress, HelperThrowAtEveryChunkPosition) {
  CascadeExecutor ex(ExecutorConfig{GetParam()});
  for (std::uint64_t failing = 0; failing < kChunks; ++failing) {
    const FaultPlan plan = FaultPlan::throw_in_helper(failing, kChunkIters);
    try {
      ex.run(
          kIters, kChunkIters, [](std::uint64_t, std::uint64_t) {},
          plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) {
            return true;
          }));
      // Legitimate when the failing chunk's helper was skipped entirely.
      ASSERT_FALSE(ex.last_run_stats().aborted);
    } catch (const InjectedFault& e) {
      ASSERT_EQ(e.chunk(), failing);
      ASSERT_TRUE(ex.last_run_stats().aborted);
    }
    verify_clean_run(ex);
  }
}

TEST_P(FaultStress, RandomizedMixedFaultSoak) {
  CascadeExecutor ex(ExecutorConfig{GetParam()});
  casc::common::Rng rng(0xF417u + GetParam());
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t failing = rng.below(kChunks);
    const bool in_helper = (rng.next() & 1) != 0;
    const FaultPlan plan = in_helper
                               ? FaultPlan::throw_in_helper(failing, kChunkIters)
                               : FaultPlan::throw_in_exec(failing, kChunkIters);
    try {
      ex.run(kIters, kChunkIters,
             plan.arm([](std::uint64_t, std::uint64_t) {}),
             plan.arm([](std::uint64_t, std::uint64_t, const TokenWatch&) {
               return true;
             }));
      ASSERT_TRUE(in_helper) << "exec faults always fire";
    } catch (const InjectedFault&) {
      ASSERT_TRUE(ex.last_run_stats().aborted);
    }
  }
  verify_clean_run(ex);
}

TEST_P(FaultStress, RepeatedWatchdogExpiries) {
  // Generous deadline: clean runs are microseconds, but sanitizer builds on
  // loaded CI hosts need headroom to never trip on a healthy cascade.
  ExecutorConfig config{GetParam()};
  config.watchdog = std::chrono::milliseconds(100);
  CascadeExecutor ex(config);
  for (int round = 0; round < 3; ++round) {
    const FaultPlan plan = FaultPlan::stall_in_exec(
        round % kChunks, kChunkIters, std::chrono::milliseconds(300));
    EXPECT_THROW(
        ex.run(kIters, kChunkIters, plan.arm([](std::uint64_t, std::uint64_t) {})),
        WatchdogExpired);
    verify_clean_run(ex);  // watchdog aborts must not wedge the pool either
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, FaultStress,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
