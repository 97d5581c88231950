// Tests for the restructure gate, which lives in casc::exec: a restructure
// run on a refused exec::Proof must install no helper phase at all — not
// even a chaos-armed one — run the plain loop body bit-identically, and
// record the refusal diagnostic in its ExecResult.  casc::rt has no gate of
// its own; it runs whatever helper it is handed.  No environment variable
// overrides a refusal; the CASC_NO_VERIFY test pins that the old escape
// hatch is gone.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"

namespace {

using namespace casc;

loopir::LoopSpec load_spec(const std::string& file) {
  std::ifstream in(std::string(CASC_TEST_SPEC_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "cannot open " << file;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return loopir::LoopSpec::parse(buffer.str());
}

exec::RtOptions restructure() {
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  return opt;
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

TEST(ProofGate, VerdictConstruction) {
  EXPECT_TRUE(exec::Proof{}.proven());

  exec::MaterializedLoop safe(load_spec("dense_sum.casc"));
  const exec::Proof proven = exec::gate_for(safe, 64 * 1024, 2, nullptr);
  EXPECT_TRUE(proven.proven());
  EXPECT_FALSE(proven.refusal.has_value());

  // 'y' is claimed read-only but written: the verifier's evidence is the
  // refusal itself.
  exec::MaterializedLoop unsafe(load_spec("unsafe_seeded.casc"));
  const exec::Proof refused = exec::gate_for(unsafe, 64 * 1024, 2, nullptr);
  ASSERT_FALSE(refused.proven());
  EXPECT_EQ(refused.refusal->severity, common::Severity::kError);
  EXPECT_FALSE(refused.refusal->rule.empty());
  EXPECT_TRUE(refused.certified.empty());
}

TEST(ProofGate, NoVerifyEnvDoesNotOverrideARefusal) {
  ScopedNoVerify env;
  exec::MaterializedLoop loop(load_spec("unsafe_seeded.casc"));
  EXPECT_FALSE(exec::gate_for(loop, 64 * 1024, 2, nullptr).proven());

  rt::CascadeExecutor executor(rt::ExecutorConfig{2});
  const exec::ExecResult got = exec::run_cascaded(loop, executor, restructure());
  EXPECT_TRUE(got.preflight_refused);
  EXPECT_EQ(got.helpers_completed + got.helpers_jumped_out, 0u)
      << "a refused proof must install no helper";
  EXPECT_EQ(got.staged_chunks, 0u);
}

TEST(ExecutorGate, RefusedGateDropsHelperAndLogsDiagnostic) {
  // The drop-the-helper rule: under a dense chaos schedule (a fault planned
  // on every chunk) a refused restructure run still runs no helper phase, so
  // no planned fault can fire and nothing degrades.
  exec::MaterializedLoop loop(load_spec("unsafe_seeded.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  const exec::Proof fresh = exec::gate_for(loop, 64 * 1024, 2, nullptr);
  ASSERT_FALSE(fresh.proven());
  for (const unsigned threads : {1u, 2u, 4u}) {
    rt::CascadeExecutor executor(rt::ExecutorConfig{threads});
    exec::RtOptions opt = restructure();
    const std::uint64_t ipc = exec::plan_for(loop, opt.chunk_bytes).iters_per_chunk();
    const std::uint64_t chunks = (loop.num_iterations() + ipc - 1) / ipc;
    rt::ChaosOptions chaos_opt;
    chaos_opt.fault_rate = 1.0;
    chaos_opt.max_stall = std::chrono::milliseconds(1);
    const rt::ChaosPlan plan = rt::ChaosPlan::make(7, chunks, ipc, chaos_opt);
    ASSERT_EQ(plan.faults().size(), chunks);
    opt.chaos = &plan;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(got.helpers_completed + got.helpers_jumped_out, 0u) << where;
    EXPECT_EQ(got.helper_faults, 0u) << where;
    EXPECT_FALSE(got.degraded) << where;
    EXPECT_TRUE(got.preflight_refused) << where;
    EXPECT_NE(got.preflight_diag.find(fresh.refusal->rule), std::string::npos)
        << where << ": " << got.preflight_diag;
    EXPECT_EQ(got.staged_chunks, 0u) << where;
    EXPECT_EQ(got.digest, ref.digest) << where;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << where;
  }
}

TEST(ExecutorGate, ProvenGateRunsHelperNormally) {
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::CascadeExecutor executor(rt::ExecutorConfig{2});
  const exec::ExecResult got = exec::run_cascaded(loop, executor, restructure());
  EXPECT_FALSE(got.preflight_refused);
  EXPECT_TRUE(got.preflight_diag.empty());
  // Every chunk's helper either ran to completion or jumped out.
  EXPECT_EQ(got.helpers_completed + got.helpers_jumped_out, got.num_chunks);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.rw_checksum, ref.rw_checksum);
}

TEST(ExecutorGate, StatsResetBetweenGatedRuns) {
  // One executor alternates a refused and a proven restructure run: nothing
  // of the refusal sticks to the ring.
  exec::MaterializedLoop unsafe(load_spec("unsafe_seeded.casc"));
  exec::MaterializedLoop safe(load_spec("dense_sum.casc"));
  rt::CascadeExecutor executor(rt::ExecutorConfig{2});
  EXPECT_TRUE(exec::run_cascaded(unsafe, executor, restructure()).preflight_refused);
  const exec::ExecResult proven = exec::run_cascaded(safe, executor, restructure());
  EXPECT_FALSE(proven.preflight_refused);
  EXPECT_TRUE(proven.preflight_diag.empty());
  EXPECT_EQ(proven.helpers_completed + proven.helpers_jumped_out,
            proven.num_chunks);
  EXPECT_TRUE(exec::run_cascaded(unsafe, executor, restructure()).preflight_refused);
}

}  // namespace
