// LoopPool contract: leases are exclusive, reuse is keyed by spec text,
// reused instances are indistinguishable from fresh ones (run_* entry points
// reset arrays; a re-leased loop keeps its cached proof, and re-proving
// under another key restores exactly that key's staged set), and the idle
// caps bound retained memory.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "casc/exec/bridge.hpp"
#include "casc/exec/loop_pool.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"

namespace {

using namespace casc;

constexpr const char* kSpec = R"(loop pool
trip 512
compute 2 1
array y 8 512 rw
array a 8 512 ro
access a read
access y write
)";

loopir::LoopSpec spec() { return loopir::LoopSpec::parse(kSpec); }

TEST(LoopPool, MissThenHit) {
  exec::LoopPool pool;
  {
    exec::LoopLease lease = pool.acquire(spec(), kSpec);
    ASSERT_TRUE(lease.valid());
    EXPECT_FALSE(lease.reused());
  }
  exec::LoopLease lease = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(lease.valid());
  EXPECT_TRUE(lease.reused());
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(LoopPool, ConcurrentLeasesAreDistinctInstances) {
  exec::LoopPool pool;
  exec::LoopLease a = pool.acquire(spec(), kSpec);
  exec::LoopLease b = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_NE(&a.loop(), &b.loop());
  EXPECT_FALSE(b.reused());  // a still holds the only pooled instance
}

TEST(LoopPool, ReusedInstanceProducesFreshResults) {
  exec::LoopPool pool;
  std::uint64_t first_digest = 0;
  {
    exec::LoopLease lease = pool.acquire(spec(), kSpec);
    first_digest = exec::run_reference(lease.loop()).digest;
  }
  exec::LoopLease lease = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(lease.reused());
  EXPECT_EQ(exec::run_reference(lease.loop()).digest, first_digest);
}

TEST(LoopPool, IdleCapsBoundRetention) {
  exec::LoopPool pool(/*max_idle_per_key=*/2, /*max_idle_total=*/2);
  {
    std::vector<exec::LoopLease> leases;
    for (int i = 0; i < 5; ++i) leases.push_back(pool.acquire(spec(), kSpec));
  }  // all five released; only two may be retained
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.idle, 2u);
  EXPECT_EQ(stats.discarded, 3u);
}

TEST(LoopPool, DistinctKeysDoNotAlias) {
  const std::string other = std::string(kSpec) + "# variant\n";
  exec::LoopPool pool;
  { exec::LoopLease lease = pool.acquire(spec(), kSpec); }
  {
    // The kSpec instance is idle, but a different key must not reuse it.
    exec::LoopLease lease = pool.acquire(spec(), other);
    EXPECT_FALSE(lease.reused());
  }
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.distinct_keys, 2u);
  EXPECT_EQ(stats.idle, 2u);
}

TEST(LoopPool, TotalCapEvictsLeastRecentlyLeasedFirst) {
  const std::string key_a = std::string(kSpec) + "# a\n";
  const std::string key_b = std::string(kSpec) + "# b\n";
  const std::string key_c = std::string(kSpec) + "# c\n";
  exec::LoopPool pool(/*max_idle_per_key=*/1, /*max_idle_total=*/2);
  { exec::LoopLease lease = pool.acquire(spec(), key_a); }
  { exec::LoopLease lease = pool.acquire(spec(), key_b); }
  // Both idle, at the total cap.  Touch A so B becomes the LRU key, then
  // overflow with C: B's instance must be the one evicted.
  { exec::LoopLease lease = pool.acquire(spec(), key_a); }
  { exec::LoopLease lease = pool.acquire(spec(), key_c); }
  exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.idle, 2u);
  {
    exec::LoopLease lease = pool.acquire(spec(), key_a);
    EXPECT_TRUE(lease.reused());  // A stayed warm
  }
  {
    exec::LoopLease lease = pool.acquire(spec(), key_b);
    EXPECT_FALSE(lease.reused());  // B was the eviction victim
  }
}

TEST(LoopPool, PipelineLeasesCacheWholeChains) {
  constexpr const char* kPipeline = R"(pipeline pool_chain
array y 8 512 rw
array a 8 512 ro
loop one
trip 512
compute 2 1
access a read
access y write
endloop
loop two
trip 512
compute 2 1
access a read
access y write
endloop
)";
  const loopir::PipelineSpec spec = loopir::PipelineSpec::parse(kPipeline);
  exec::LoopPool pool;
  const exec::MaterializedPipeline* first = nullptr;
  {
    exec::PipelineLease lease = pool.acquire_pipeline(spec, kPipeline);
    ASSERT_TRUE(lease.valid());
    EXPECT_FALSE(lease.reused());
    first = &lease.pipeline();
    EXPECT_EQ(lease.pipeline().num_stages(), 2u);
  }
  exec::PipelineLease lease = pool.acquire_pipeline(spec, kPipeline);
  ASSERT_TRUE(lease.valid());
  EXPECT_TRUE(lease.reused());
  EXPECT_EQ(&lease.pipeline(), first);  // the SAME materialization came back
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// ---- pooled loops keep their proof -------------------------------------------

exec::RtOptions restructure(std::uint64_t chunk_bytes) {
  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  opt.chunk_bytes = chunk_bytes;
  return opt;
}

TEST(LoopPool, ReleasedLoopKeepsItsProof) {
  exec::LoopPool pool;
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  std::uint64_t digest = 0;
  {
    exec::LoopLease lease = pool.acquire(spec(), kSpec);
    const exec::ExecResult got =
        exec::run_cascaded(lease.loop(), executor, restructure(64 * 1024));
    EXPECT_GT(got.prove_seconds, 0.0);
    digest = got.digest;
  }
  exec::LoopLease lease = pool.acquire(spec(), kSpec);
  ASSERT_TRUE(lease.reused());
  const exec::ExecResult got =
      exec::run_cascaded(lease.loop(), executor, restructure(64 * 1024));
  EXPECT_EQ(got.prove_seconds, 0.0);
  EXPECT_EQ(got.digest, digest);
  EXPECT_EQ(got.digest, exec::run_reference(lease.loop()).digest);
}

TEST(LoopPool, ReleasedPipelineKeepsItsStageProofs) {
  const std::string text = std::string(R"(pipeline proof_chain
array y 8 4096 rw
array a 8 4096 ro
loop one
trip 4096
compute 2 1
access a read
access y write
endloop
)");
  const loopir::PipelineSpec pspec = loopir::PipelineSpec::parse(text);
  exec::LoopPool pool;
  rt::ExecutorConfig cfg;
  cfg.num_threads = 2;
  rt::CascadeExecutor executor(cfg);
  {
    exec::PipelineLease lease = pool.acquire_pipeline(pspec, text);
    const exec::PipelineResult got =
        exec::run_pipeline_cascaded(lease.pipeline(), executor, restructure(4096));
    EXPECT_GT(got.prove_seconds, 0.0);
  }
  exec::PipelineLease lease = pool.acquire_pipeline(pspec, text);
  ASSERT_TRUE(lease.reused());
  const exec::PipelineResult got =
      exec::run_pipeline_cascaded(lease.pipeline(), executor, restructure(4096));
  EXPECT_EQ(got.prove_seconds, 0.0);
  EXPECT_EQ(got.chain_digest,
            exec::run_pipeline_reference(lease.pipeline()).chain_digest);
}

// 't' is claimed read-only but written 8192 iterations ahead of its reads: a
// flow distance the race certifier turns into a ring bound.  At 4 KB chunks
// (256 iterations) that is 32 chunks, so rings of up to 32 workers may stage
// 't'; at 64 KB (4096 iterations) it is 2 chunks, so a 4-worker ring may not
// and the proof refuses.
constexpr const char* kFlowWindow = R"(loop flow_window
trip 32768
compute 2 1
array t 8 40960 ro
access t read
access t write offset 8192
)";

std::string gather_split_text() {
  std::ifstream in(std::string(CASC_TEST_SPEC_DIR) + "/gather_split.casc");
  EXPECT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Same staged stream (SoA entries and per-iteration positions) and same
/// body shape.
void expect_same_staging(const exec::MaterializedLoop& got,
                         const exec::MaterializedLoop& want,
                         const std::string& where) {
  ASSERT_EQ(got.staged_refs_total(), want.staged_refs_total()) << where;
  const std::uint64_t n = got.staged_refs_total();
  EXPECT_TRUE(std::equal(got.staged_offsets(), got.staged_offsets() + n,
                         want.staged_offsets()))
      << where;
  EXPECT_TRUE(std::equal(got.staged_arrays(), got.staged_arrays() + n,
                         want.staged_arrays()))
      << where;
  EXPECT_TRUE(std::equal(got.staged_sizes(), got.staged_sizes() + n,
                         want.staged_sizes()))
      << where;
  for (std::uint64_t it = 0; it <= got.num_iterations(); ++it) {
    ASSERT_EQ(got.staged_refs_before(it), want.staged_refs_before(it))
        << where << " iteration " << it;
  }
  EXPECT_EQ(got.max_staged_per_iter(), want.max_staged_per_iter()) << where;
  const exec::BodyShape& a = got.body_shape();
  const exec::BodyShape& b = want.body_shape();
  EXPECT_EQ(a.slots, b.slots) << where;
  EXPECT_EQ(a.staged_reads, b.staged_reads) << where;
  EXPECT_EQ(a.plain_reads, b.plain_reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
}

TEST(LoopPool, RestageDoesNotLeakAcrossProofKeys) {
  struct Key {
    unsigned workers;
    std::uint64_t chunk_bytes;
  };
  const Key keys[] = {{4, 4 * 1024}, {4, 64 * 1024}, {2, 64 * 1024},
                      {1, 4 * 1024}, {4, 64 * 1024}, {4, 4 * 1024}};
  for (const std::string& text : {std::string(kFlowWindow), gather_split_text()}) {
    const loopir::LoopSpec lspec = loopir::LoopSpec::parse(text);
    exec::MaterializedLoop reference(lspec);
    const exec::ExecResult ref = exec::run_reference(reference);
    exec::LoopPool pool(/*max_idle_per_key=*/1);
    std::uint64_t proven = 0;
    std::uint64_t refused = 0;
    for (std::size_t i = 0; i < std::size(keys); ++i) {
      const Key& key = keys[i];
      const std::string where = lspec.name + " step " + std::to_string(i) +
                                " workers=" + std::to_string(key.workers) +
                                " chunk_bytes=" + std::to_string(key.chunk_bytes);
      exec::LoopLease lease = pool.acquire(lspec, text);
      EXPECT_EQ(lease.reused(), i > 0) << where;
      rt::ExecutorConfig cfg;
      cfg.num_threads = key.workers;
      rt::CascadeExecutor executor(cfg);
      const exec::ExecResult got =
          exec::run_cascaded(lease.loop(), executor, restructure(key.chunk_bytes));
      EXPECT_EQ(got.digest, ref.digest) << where;
      EXPECT_EQ(got.rw_checksum, ref.rw_checksum) << where;

      exec::MaterializedLoop fresh(lspec);
      const bool allowed =
          fresh.proof(key.chunk_bytes, key.workers).proven();
      EXPECT_EQ(got.preflight_refused, !allowed) << where;
      ++(allowed ? proven : refused);
      expect_same_staging(lease.loop(), fresh, where);
    }
    if (lspec.name == "flow_window") {
      // The key sequence really moves the staged set both ways.
      EXPECT_GT(proven, 0u);
      EXPECT_GT(refused, 0u);
    }
  }
}

TEST(LoopPool, ThreadedAcquireReleaseIsSafe) {
  exec::LoopPool pool;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        exec::LoopLease lease = pool.acquire(spec(), kSpec);
        if (!lease.valid()) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const exec::LoopPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 200u);
  EXPECT_GE(stats.hits, 190u);  // 4 threads -> at most ~4 concurrent misses
}

}  // namespace
