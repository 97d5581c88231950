// Cross-backend equivalence: every spec in tests/specs/, materialized by
// casc::exec, must produce bit-identical results on the real threaded
// runtime — for every helper mode, several worker counts, and chunk
// geometries — compared against plain sequential interpretation.  Also pins
// the chunk-plan parity contract: sim and rt derive their chunk geometry
// from the same core::ChunkPlan call, so identical options yield identical
// plans.  And pins the cached restructure proof: a repeat run with the same
// (chunk_bytes, workers) key does not re-prove, a changed key does, and the
// cached proof equals a fresh gate_for on every committed spec.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/analysis/verifier.hpp"
#include "casc/cascade/engine.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/common/rng.hpp"
#include "casc/core/chunk.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"

namespace {

using namespace casc;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

loopir::LoopSpec load_spec(const std::string& file) {
  return loopir::LoopSpec::parse(
      read_text(std::string(CASC_TEST_SPEC_DIR) + "/" + file));
}

const std::vector<std::string> kSpecs = {
    "dense_sum.casc",  "spmv_small.casc",        "unsafe_seeded.casc",
    "histogram.casc",  "dot_product.casc",       "sparse_accumulate.casc",
    "gather_split.casc"};

TEST(ExecBridge, ReferenceRunsAreDeterministic) {
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult a = exec::run_reference(loop);
    const exec::ExecResult b = exec::run_reference(loop);
    EXPECT_EQ(a.digest, b.digest) << file;
    EXPECT_EQ(a.rw_checksum, b.rw_checksum) << file;
    EXPECT_EQ(a.total_iters, loop.num_iterations()) << file;
  }
}

TEST(ExecBridge, CascadedMatchesReferenceBitForBit) {
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    for (const unsigned threads : {1u, 2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      rt::CascadeExecutor executor(cfg);
      for (const exec::HelperMode mode :
           {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
            exec::HelperMode::kRestructure}) {
        exec::RtOptions opt;
        opt.helper = mode;
        const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
        EXPECT_EQ(got.digest, ref.digest)
            << file << " threads=" << threads << " mode=" << static_cast<int>(mode);
        EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
            << file << " threads=" << threads << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

TEST(ExecBridge, NonDefaultChunkGeometryStillMatches) {
  // Fixed points cover every chunk geometry against both specs' 32768-
  // iteration trip: one iteration per chunk, a ragged tail (7), an exact
  // multiple (512), and a chunk larger than the whole loop (1 << 20).  A
  // seeded draw from [1, 512] adds more.  Whatever mix of staged chunks and
  // jump-out fallbacks a geometry produces, the bits must match the
  // sequential reference.
  std::vector<std::uint64_t> ipcs = {1, 7, 512, 1024, 1ull << 20};
  common::Rng rng(0x6E0A5EEDull);
  for (int k = 0; k < 8; ++k) ipcs.push_back(rng.in_range(1, 512));

  for (const std::string file : {"dense_sum.casc", "gather_split.casc"}) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    for (const unsigned threads : {1u, 2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      rt::CascadeExecutor executor(cfg);
      for (const std::uint64_t ipc : ipcs) {
        exec::RtOptions opt;
        opt.helper = exec::HelperMode::kRestructure;
        opt.iters_per_chunk = ipc;
        const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
        EXPECT_EQ(got.digest, ref.digest)
            << file << " threads=" << threads << " ipc=" << ipc;
        EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
            << file << " threads=" << threads << " ipc=" << ipc;
        EXPECT_LE(got.staged_chunks, got.num_chunks)
            << file << " threads=" << threads << " ipc=" << ipc;
      }
    }
  }
}

TEST(ExecBridge, SafeSpecStagesAndRunsGated) {
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  EXPECT_TRUE(loop.demoted_claims().empty());
  EXPECT_TRUE(exec::gate_for(loop, 64 * 1024, 2, nullptr).proven());
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
  EXPECT_FALSE(got.preflight_refused);
  EXPECT_GT(got.staged_chunks, 0u);
}

TEST(ExecBridge, CertifiedDisjointGatherStagesDespiteFalseClaim) {
  // The acceptance spec for the race certifier: 't' is claimed read-only but
  // written, so the strict verifier refuses — yet the resolved addresses
  // prove staged reads (lower half) and writes (upper half) never meet.  The
  // certificate overturns the refusal and the loop runs restructured with
  // bit-identical results.
  exec::MaterializedLoop loop(load_spec("gather_split.casc"));
  EXPECT_EQ(loop.demoted_claims(), std::vector<std::string>{"t"});
  // The strict verifier (claims only) refuses...
  EXPECT_FALSE(analysis::analyze(loop.spec()).restructure_eligible);
  // ...but the certificate-aware gate proves it for any ring.
  std::vector<std::string> certified;
  EXPECT_TRUE(
      exec::gate_for(loop, 64 * 1024, 4, &certified).proven());
  EXPECT_NE(std::find(certified.begin(), certified.end(), "t"),
            certified.end());

  const exec::ExecResult ref = exec::run_reference(loop);
  for (const unsigned threads : {2u, 4u}) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    rt::CascadeExecutor executor(cfg);
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_FALSE(got.preflight_refused) << got.preflight_diag;
    EXPECT_GT(got.staged_chunks, 0u) << "threads=" << threads;
    EXPECT_EQ(got.digest, ref.digest) << "threads=" << threads;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << "threads=" << threads;
  }
}

TEST(ExecBridge, ReductionSpecsRunCorrectlyButDoNotStage) {
  // update-sum accumulators are never stage candidates; the runs stay
  // token-ordered (and therefore bit-identical) with no staged chunks from
  // the accumulator side.
  for (const std::string& file :
       {std::string("histogram.casc"), std::string("sparse_accumulate.casc")}) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    rt::ExecutorConfig cfg;
    cfg.num_threads = 2;
    rt::CascadeExecutor executor(cfg);
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kRestructure;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(got.digest, ref.digest) << file;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << file;
  }
}

TEST(ExecBridge, UnsafeSpecRefusesRestructureButStaysCorrect) {
  exec::MaterializedLoop loop(load_spec("unsafe_seeded.casc"));
  // The false read-only claim on 'y' is demoted at materialization...
  EXPECT_EQ(loop.demoted_claims(), std::vector<std::string>{"y"});
  // ...and refuses the restructure gate (the verifier judges the ORIGINAL
  // claims, not the sanitized nest).
  EXPECT_FALSE(exec::gate_for(loop, 64 * 1024, 2, nullptr).proven());

  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
  EXPECT_TRUE(got.preflight_refused);
  EXPECT_FALSE(got.preflight_diag.empty());
  EXPECT_EQ(got.staged_chunks, 0u);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.rw_checksum, ref.rw_checksum);
}

TEST(ExecBridge, ChunkPlanParityAcrossBackends) {
  constexpr std::uint64_t kChunkBytes = 64 * 1024;
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const loopir::LoopNest& nest = loop.nest();

    // Both backends must call the one shared planner with the same inputs.
    const core::ChunkPlan shared = core::ChunkPlan::for_iters_per_bytes(
        nest.num_iterations(), nest.bytes_per_iteration(), kChunkBytes);
    const core::ChunkPlan rt_plan = exec::plan_for(loop, kChunkBytes);
    EXPECT_EQ(rt_plan.iters_per_chunk(), shared.iters_per_chunk()) << file;
    EXPECT_EQ(rt_plan.num_chunks(), shared.num_chunks()) << file;

    // The simulated cascade over the same nest lands on the same chunk count.
    cascade::CascadeSimulator sim(sim::MachineConfig::pentium_pro());
    cascade::CascadeOptions sim_opt;
    sim_opt.chunk_bytes = kChunkBytes;
    sim_opt.helper = cascade::HelperKind::kPrefetch;
    const cascade::CascadeResult sim_result = sim.run_cascaded(nest, sim_opt);
    EXPECT_EQ(sim_result.num_chunks, shared.num_chunks()) << file;

    // And so does the real run, end to end.
    rt::CascadeExecutor executor{rt::ExecutorConfig{}};
    exec::RtOptions opt;
    opt.helper = exec::HelperMode::kNone;
    opt.chunk_bytes = kChunkBytes;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(got.iters_per_chunk, shared.iters_per_chunk()) << file;
    EXPECT_EQ(got.num_chunks, shared.num_chunks()) << file;
  }
}

TEST(ExecBridgeChaos, AnyChaosScheduleMatchesReferenceBitForBit) {
  // The fail-soft acceptance property, cross-backend: whatever seeded mix of
  // helper kills, stalls, and corrupt-staging commits a schedule contains,
  // the cascaded run must produce the sequential reference bits — for every
  // helper mode (kNone runs the faults on a no-op helper) and across worker
  // counts.  Exceptions must not escape: chaos plans are helper-site only.
  for (const std::string& file : kSpecs) {
    exec::MaterializedLoop loop(load_spec(file));
    const exec::ExecResult ref = exec::run_reference(loop);
    for (const unsigned threads : {2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      // Retry instantly: these runs are far shorter than a real backoff, and
      // the repeat faults drive workers into quarantine and reclamation.
      cfg.retry_backoff = std::chrono::milliseconds(0);
      rt::CascadeExecutor executor(cfg);
      for (const exec::HelperMode mode :
           {exec::HelperMode::kNone, exec::HelperMode::kPrefetch,
            exec::HelperMode::kRestructure}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          exec::RtOptions opt;
          opt.helper = mode;
          const std::uint64_t ipc = exec::plan_for(loop, opt.chunk_bytes).iters_per_chunk();
          const std::uint64_t chunks =
              (loop.num_iterations() + ipc - 1) / ipc;
          rt::ChaosOptions chaos_opt;
          chaos_opt.fault_rate = 0.5;
          chaos_opt.max_stall = std::chrono::milliseconds(1);
          const rt::ChaosPlan plan =
              rt::ChaosPlan::make(seed, chunks, ipc, chaos_opt);
          opt.chaos = &plan;
          const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
          EXPECT_EQ(got.digest, ref.digest)
              << file << " threads=" << threads << " mode=" << static_cast<int>(mode)
              << " seed=" << seed;
          EXPECT_EQ(got.rw_checksum, ref.rw_checksum)
              << file << " threads=" << threads << " mode=" << static_cast<int>(mode)
              << " seed=" << seed;
          if (got.helper_faults > 0) {
            EXPECT_TRUE(got.degraded);
          }
        }
      }
    }
  }
}

TEST(ExecBridgeChaos, StagedChunksCountOnlyChunksThatRanStaged) {
  // A corrupt-staging fault commits its chunk's staging and then throws.
  // From then on the faulty worker's chunks run from the arrays
  // (staging_invalid), and a quarantined worker's chunks are reclaimed by
  // another thread; none of them consumed staged values, so none may count
  // in staged_chunks even though their commit flags may be set.
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  for (const unsigned threads : {2u, 4u}) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = threads;
    cfg.retry_backoff = std::chrono::milliseconds(0);
    rt::CascadeExecutor executor(cfg);
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      exec::RtOptions opt;
      opt.helper = exec::HelperMode::kRestructure;
      opt.iters_per_chunk = 256;
      const std::uint64_t chunks =
          (loop.num_iterations() + opt.iters_per_chunk - 1) / opt.iters_per_chunk;
      rt::ChaosOptions chaos_opt;
      chaos_opt.fault_rate = 0.1;
      chaos_opt.allow_throw = false;
      chaos_opt.allow_stall = false;
      const rt::ChaosPlan plan =
          rt::ChaosPlan::make(seed, chunks, opt.iters_per_chunk, chaos_opt);
      opt.chaos = &plan;
      const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
      const std::string where =
          "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);
      EXPECT_EQ(got.digest, ref.digest) << where;
      EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << where;
      EXPECT_LE(got.staged_chunks + got.stagings_invalidated + got.chunks_reclaimed,
                got.num_chunks)
          << where << " staged=" << got.staged_chunks
          << " invalidated=" << got.stagings_invalidated
          << " reclaimed=" << got.chunks_reclaimed;
    }
  }
}

TEST(ExecBridgeChaos, SoftBudgetDemotionKeepsResultsIdentical) {
  // Drive the budget ladder explicitly: a tiny budget demotes helpers (and
  // then the whole cascade to sequential) mid-run, and the bits still match.
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 4;
  rt::CascadeExecutor executor(cfg);
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  opt.soft_budget_factor = 1.0;
  opt.estimated_seq_seconds = 1e-6;  // ~1us budget: demotes almost at once
  const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.rw_checksum, ref.rw_checksum);
  // Budgets persist on the executor; reset so later tests see a clean slate.
  executor.set_soft_budget(std::chrono::milliseconds(0),
                           std::chrono::milliseconds(0));
}

// ---- the cached restructure proof -------------------------------------------

exec::RtOptions restructure(std::uint64_t chunk_bytes = 64 * 1024) {
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  opt.chunk_bytes = chunk_bytes;
  return opt;
}

TEST(ExecBridgeProof, SameKeyRunDoesNotReprove) {
  exec::MaterializedLoop loop(load_spec("gather_split.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);

  const exec::ExecResult first = exec::run_cascaded(loop, executor, restructure());
  EXPECT_GT(first.prove_seconds, 0.0);
  const exec::ExecResult second = exec::run_cascaded(loop, executor, restructure());
  EXPECT_EQ(second.prove_seconds, 0.0);
  for (const exec::ExecResult* r : {&first, &second}) {
    EXPECT_FALSE(r->preflight_refused);
    EXPECT_GT(r->staged_chunks, 0u);
    EXPECT_EQ(r->digest, ref.digest);
    EXPECT_EQ(r->rw_checksum, ref.rw_checksum);
  }

  // Prefetch and none-mode runs never prove, and leave the cached key alone.
  for (const exec::HelperMode mode :
       {exec::HelperMode::kNone, exec::HelperMode::kPrefetch}) {
    exec::RtOptions opt;
    opt.helper = mode;
    const exec::ExecResult got = exec::run_cascaded(loop, executor, opt);
    EXPECT_EQ(got.prove_seconds, 0.0) << static_cast<int>(mode);
    EXPECT_EQ(got.digest, ref.digest) << static_cast<int>(mode);
  }
  EXPECT_EQ(exec::run_cascaded(loop, executor, restructure()).prove_seconds, 0.0);
}

TEST(ExecBridgeProof, ChangedChunkBytesOrWorkerCountReproves) {
  exec::MaterializedLoop loop(load_spec("dense_sum.casc"));
  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg2;
  cfg2.num_threads = 2;
  rt::CascadeExecutor two(cfg2);
  rt::ExecutorConfig cfg4;
  cfg4.num_threads = 4;
  rt::CascadeExecutor four(cfg4);

  struct Step {
    rt::CascadeExecutor* executor;
    std::uint64_t chunk_bytes;
    bool reproves;
  };
  const Step steps[] = {
      {&two, 64 * 1024, true},   // first run of the key
      {&two, 64 * 1024, false},  // same key
      {&two, 4 * 1024, true},    // chunk_bytes changed
      {&four, 4 * 1024, true},   // worker count changed
      {&four, 4 * 1024, false},  // same key again
      {&two, 64 * 1024, true},   // the cache holds one key: back to the first
  };
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const Step& step = steps[i];
    const exec::ExecResult got =
        exec::run_cascaded(loop, *step.executor, restructure(step.chunk_bytes));
    if (step.reproves) {
      EXPECT_GT(got.prove_seconds, 0.0) << "step " << i;
    } else {
      EXPECT_EQ(got.prove_seconds, 0.0) << "step " << i;
    }
    EXPECT_FALSE(got.preflight_refused) << "step " << i;
    EXPECT_EQ(got.digest, ref.digest) << "step " << i;
    EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << "step " << i;
  }
}

TEST(ExecBridgeProof, RefusedProofStaysRefusedOnTheCachedPath) {
  exec::MaterializedLoop loop(load_spec("unsafe_seeded.casc"));
  const exec::Proof fresh = exec::gate_for(loop, 64 * 1024, 2, nullptr);
  ASSERT_FALSE(fresh.proven());

  const exec::ExecResult ref = exec::run_reference(loop);
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  const exec::ExecResult first = exec::run_cascaded(loop, executor, restructure());
  const exec::ExecResult second = exec::run_cascaded(loop, executor, restructure());
  EXPECT_GT(first.prove_seconds, 0.0);
  EXPECT_EQ(second.prove_seconds, 0.0);
  for (const exec::ExecResult* r : {&first, &second}) {
    EXPECT_TRUE(r->preflight_refused);
    EXPECT_EQ(r->staged_chunks, 0u);
    EXPECT_EQ(r->digest, ref.digest);
    EXPECT_EQ(r->rw_checksum, ref.rw_checksum);
  }
  EXPECT_EQ(second.preflight_diag, first.preflight_diag);

  double seconds = -1.0;
  const exec::Proof& cached = loop.proof(64 * 1024, 2, &seconds);
  EXPECT_EQ(seconds, 0.0);
  ASSERT_FALSE(cached.proven());
  EXPECT_TRUE(cached.certified.empty());
  EXPECT_EQ(cached.refusal->rule, fresh.refusal->rule);
  EXPECT_EQ(cached.refusal->message, fresh.refusal->message);
  EXPECT_EQ(common::render_text(*cached.refusal),
            common::render_text(*fresh.refusal));
  EXPECT_EQ(first.preflight_diag, common::render_text(*fresh.refusal));
}

/// Every single-loop spec committed under tests/specs and examples/specs, as
/// paths relative to the source tree.
std::vector<std::string> committed_loop_specs() {
  const std::filesystem::path root(CASC_SOURCE_DIR);
  std::vector<std::string> paths;
  for (const char* dir : {"tests/specs", "examples/specs"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.path().extension() != ".casc") continue;
      if (loopir::is_pipeline_text(read_text(entry.path().string()))) continue;
      paths.push_back(std::filesystem::relative(entry.path(), root).string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class ExecBridgeProofParity : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecBridgeProofParity, CachedProofEqualsAFreshGate) {
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(
      read_text(std::string(CASC_SOURCE_DIR) + "/" + GetParam())));
  for (const std::uint64_t workers : {1u, 2u, 4u}) {
    for (const std::uint64_t chunk_bytes : {4u * 1024, 64u * 1024}) {
      double seconds = -1.0;
      (void)loop.proof(chunk_bytes, workers, &seconds);
      EXPECT_GT(seconds, 0.0);
      const exec::Proof& cached = loop.proof(chunk_bytes, workers, &seconds);
      EXPECT_EQ(seconds, 0.0);

      std::vector<std::string> certified{"not-an-operand"};
      const exec::Proof fresh =
          exec::gate_for(loop, chunk_bytes, workers, &certified);
      const std::string key = " workers=" + std::to_string(workers) +
                              " chunk_bytes=" + std::to_string(chunk_bytes);
      ASSERT_EQ(cached.proven(), fresh.proven()) << key;
      EXPECT_EQ(cached.certified, certified) << key;
      EXPECT_EQ(fresh.certified, certified) << key;
      if (!fresh.proven()) {
        EXPECT_EQ(cached.refusal->severity, fresh.refusal->severity) << key;
        EXPECT_EQ(common::render_text(*cached.refusal),
                  common::render_text(*fresh.refusal))
            << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ExecBridgeProofParity, ::testing::ValuesIn(committed_loop_specs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      const std::filesystem::path path(info.param);
      std::string name = path.begin()->string() + "_" + path.stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
