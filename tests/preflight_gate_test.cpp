// Tests for the runtime preflight gate: gated CascadeExecutor::run must
// refuse to let an unproven helper stage values, degrade to the
// always-correct path, and log the refusal diagnostic.  No
// environment variable overrides a refusal; the CASC_NO_VERIFY tests pin
// that the old escape hatch is gone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "casc/common/diagnostic.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/preflight.hpp"

namespace {

using casc::common::Diagnostic;
using casc::common::Severity;
using casc::rt::CascadeExecutor;
using casc::rt::ExecutorConfig;
using casc::rt::PreflightGate;
using casc::rt::TokenWatch;

Diagnostic hazard_diag() {
  Diagnostic d;
  d.severity = Severity::kError;
  d.rule = "hazard-cross-chunk";
  d.message = "staged operand 'y' is written by the loop";
  d.loop = "unsafe_recurrence";
  d.object = "y";
  return d;
}

/// Sets CASC_NO_VERIFY=1 (the removed escape hatch) for the duration of a
/// test and restores the previous value after.
class ScopedNoVerify {
 public:
  ScopedNoVerify() {
    const char* old = std::getenv("CASC_NO_VERIFY");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("CASC_NO_VERIFY", "1", 1);
  }
  ~ScopedNoVerify() {
    if (had_old_) {
      ::setenv("CASC_NO_VERIFY", old_.c_str(), 1);
    } else {
      ::unsetenv("CASC_NO_VERIFY");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(PreflightGate, VerdictConstruction) {
  const PreflightGate proven = PreflightGate::proven();
  EXPECT_TRUE(proven.allow_restructure());

  const PreflightGate refused = PreflightGate::refused(hazard_diag());
  EXPECT_FALSE(refused.allow_restructure());
  EXPECT_EQ(refused.reason().rule, "hazard-cross-chunk");
}

TEST(PreflightGate, NoVerifyEnvDoesNotOverrideARefusal) {
  ScopedNoVerify env;
  const PreflightGate refused = PreflightGate::refused(hazard_diag());
  EXPECT_FALSE(refused.allow_restructure());

  std::atomic<std::uint64_t> helper_calls{0};
  CascadeExecutor ex(ExecutorConfig{2});
  ex.run(
      1024, 128, [](std::uint64_t, std::uint64_t) {},
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) {
        ++helper_calls;
        return true;
      },
      refused);
  EXPECT_EQ(helper_calls.load(), 0u) << "the executor must drop the helper";
  EXPECT_TRUE(ex.last_run_stats().preflight_refused);
}

TEST(ExecutorGate, RefusedGateDropsHelperAndLogsDiagnostic) {
  const std::uint64_t n = 1024;
  std::vector<std::uint64_t> out(n, 0);
  std::atomic<std::uint64_t> helper_calls{0};

  CascadeExecutor ex(ExecutorConfig{2});
  ex.run(
      n, 128,
      [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) out[i] = i * 3;
      },
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) {
        ++helper_calls;
        return true;
      },
      PreflightGate::refused(hazard_diag()));

  EXPECT_EQ(helper_calls.load(), 0u) << "refused helper must never run";
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * 3);
  const auto& stats = ex.last_run_stats();
  EXPECT_TRUE(stats.preflight_refused);
  EXPECT_NE(stats.preflight_diag.find("hazard-cross-chunk"), std::string::npos)
      << stats.preflight_diag;
  EXPECT_EQ(stats.helpers_completed, 0u);
  EXPECT_EQ(stats.chunks_executed, n / 128);
}

TEST(ExecutorGate, ProvenGateRunsHelperNormally) {
  const std::uint64_t n = 1024;
  std::atomic<std::uint64_t> helper_calls{0};
  CascadeExecutor ex(ExecutorConfig{2});
  ex.run(
      n, 128, [](std::uint64_t, std::uint64_t) {},
      [&](std::uint64_t, std::uint64_t, const TokenWatch&) {
        ++helper_calls;
        return true;
      },
      PreflightGate::proven());
  EXPECT_GT(helper_calls.load(), 0u);
  const auto& stats = ex.last_run_stats();
  EXPECT_FALSE(stats.preflight_refused);
  EXPECT_TRUE(stats.preflight_diag.empty());
}

TEST(ExecutorGate, StatsResetBetweenGatedRuns) {
  CascadeExecutor ex(ExecutorConfig{2});
  auto exec = [](std::uint64_t, std::uint64_t) {};
  auto helper = [](std::uint64_t, std::uint64_t, const TokenWatch&) {
    return true;
  };
  ex.run(256, 64, exec, helper, PreflightGate::refused(hazard_diag()));
  EXPECT_TRUE(ex.last_run_stats().preflight_refused);
  ex.run(256, 64, exec, helper, PreflightGate::proven());
  EXPECT_FALSE(ex.last_run_stats().preflight_refused);
  EXPECT_TRUE(ex.last_run_stats().preflight_diag.empty());
}

}  // namespace
