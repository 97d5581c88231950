// TenantScheduler contract: weighted round-robin dispatch order, credit
// accounting, single-tenant batches, bounded admission (queue-full
// backpressure), duplicate-job rejection, drain/shutdown semantics, and
// idle tracking.  All single-threaded and deterministic — the concurrency
// side is covered by the server and soak tests.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/svc/scheduler.hpp"

namespace {

using namespace casc;

svc::JobTicket make_job(const std::string& tenant, std::uint64_t id,
                        std::uint32_t weight = 1) {
  svc::JobTicket job;
  job.request.tenant = tenant;
  job.request.job = id;
  job.request.weight = weight;
  return job;
}

TEST(SvcScheduler, WeightedRoundRobinOrder) {
  svc::TenantScheduler sched(64);
  // A has weight 2, B weight 1, four jobs each.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_EQ(sched.submit(make_job("A", i, 2)), svc::Admit::kAccepted);
    ASSERT_EQ(sched.submit(make_job("B", i, 1)), svc::Admit::kAccepted);
  }
  // One job per pop: each WRR cycle grants A two slots for B's one, and no
  // tenant waits more than one full cycle.
  std::vector<std::string> order;
  std::vector<svc::JobTicket> batch;
  while (sched.queued() != 0) {
    ASSERT_TRUE(sched.pop_batch(1, batch));
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch[0].request.tenant);
    sched.note_done(batch[0].request.tenant, 1);
  }
  const std::vector<std::string> want = {"A", "A", "B", "A", "A", "B", "B", "B"};
  EXPECT_EQ(order, want);
}

TEST(SvcScheduler, BatchesAreSingleTenantAndCreditBounded) {
  svc::TenantScheduler sched(64);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_EQ(sched.submit(make_job("A", i, 4)), svc::Admit::kAccepted);
  }
  ASSERT_EQ(sched.submit(make_job("B", 1, 1)), svc::Admit::kAccepted);

  std::vector<svc::JobTicket> batch;
  // A's credit (4) caps the batch below both max_jobs and its queue depth.
  ASSERT_TRUE(sched.pop_batch(16, batch));
  ASSERT_EQ(batch.size(), 4u);
  for (const svc::JobTicket& job : batch) EXPECT_EQ(job.request.tenant, "A");
  sched.note_done("A", batch.size());

  // Credit exhausted: A rotated behind B.
  ASSERT_TRUE(sched.pop_batch(16, batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.tenant, "B");
  sched.note_done("B", 1);

  ASSERT_TRUE(sched.pop_batch(16, batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.tenant, "A");
  sched.note_done("A", 2);
}

TEST(SvcScheduler, QueueFullBackpressure) {
  svc::TenantScheduler sched(2);
  EXPECT_EQ(sched.submit(make_job("A", 1)), svc::Admit::kAccepted);
  EXPECT_EQ(sched.submit(make_job("B", 1)), svc::Admit::kAccepted);
  EXPECT_EQ(sched.submit(make_job("C", 1)), svc::Admit::kQueueFull);
  EXPECT_EQ(std::string(svc::to_string(svc::Admit::kQueueFull)),
            "svc-queue-full");

  // Popping frees capacity again.
  std::vector<svc::JobTicket> batch;
  ASSERT_TRUE(sched.pop_batch(1, batch));
  EXPECT_EQ(sched.submit(make_job("C", 1)), svc::Admit::kAccepted);
  sched.note_done(batch[0].request.tenant, 1);
}

std::uint64_t seen_id_ranges(const svc::TenantScheduler& sched,
                             const std::string& tenant) {
  for (const auto& [name, stats] : sched.tenant_stats()) {
    if (name == tenant) return stats.seen_id_ranges;
  }
  return 0;
}

void run_dry(svc::TenantScheduler& sched) {
  std::vector<svc::JobTicket> batch;
  while (sched.queued() != 0) {
    ASSERT_TRUE(sched.pop_batch(1024, batch));
    sched.note_done(batch[0].request.tenant, batch.size());
  }
}

TEST(SvcScheduler, DuplicateJobIdsRejectedPerTenant) {
  svc::TenantScheduler sched(64);
  EXPECT_EQ(sched.submit(make_job("A", 7)), svc::Admit::kAccepted);
  EXPECT_EQ(sched.submit(make_job("A", 7)), svc::Admit::kDuplicateJob);
  // Same id under another tenant is a different job.
  EXPECT_EQ(sched.submit(make_job("B", 7)), svc::Admit::kAccepted);
  // The id stays burned even after the job completes.
  std::vector<svc::JobTicket> batch;
  while (sched.queued() != 0) {
    ASSERT_TRUE(sched.pop_batch(8, batch));
    sched.note_done(batch[0].request.tenant, batch.size());
  }
  EXPECT_EQ(sched.submit(make_job("A", 7)), svc::Admit::kDuplicateJob);

  // Out of order and gapped: 10, 2, 30, 20 are four separate ranges.
  for (const std::uint64_t id : {10u, 2u, 30u, 20u}) {
    ASSERT_EQ(sched.submit(make_job("C", id)), svc::Admit::kAccepted) << id;
  }
  EXPECT_EQ(seen_id_ranges(sched, "C"), 4u);
  for (const std::uint64_t id : {10u, 2u, 30u, 20u}) {
    EXPECT_EQ(sched.submit(make_job("C", id)), svc::Admit::kDuplicateJob) << id;
  }
  // Neighbours of a seen id are still free.
  for (const std::uint64_t id : {1u, 3u, 9u, 11u}) {
    EXPECT_EQ(sched.submit(make_job("C", id)), svc::Admit::kAccepted) << id;
  }
  // 1..3 and 9..11 merged into their seeds: {1-3, 9-11, 20, 30}.
  EXPECT_EQ(seen_id_ranges(sched, "C"), 4u);
  // Filling the gap 4..8 joins [1, 3] and [9, 11] into one range.
  for (std::uint64_t id = 4; id <= 8; ++id) {
    ASSERT_EQ(sched.submit(make_job("C", id)), svc::Admit::kAccepted) << id;
  }
  EXPECT_EQ(seen_id_ranges(sched, "C"), 3u);
  // 21 extends [20] upward and 29 extends [30] downward; 22..28 then merge
  // the two, leaving [1, 11] and [20, 30].
  for (std::uint64_t id = 21; id <= 29; ++id) {
    ASSERT_EQ(sched.submit(make_job("C", id)), svc::Admit::kAccepted) << id;
  }
  EXPECT_EQ(seen_id_ranges(sched, "C"), 2u);
  for (std::uint64_t id = 1; id <= 30; ++id) {
    const svc::Admit expect = id >= 12 && id <= 19 ? svc::Admit::kAccepted
                                                   : svc::Admit::kDuplicateJob;
    EXPECT_EQ(sched.submit(make_job("C", id)), expect) << id;
  }
  EXPECT_EQ(seen_id_ranges(sched, "C"), 1u);
  // The extremes of the id space neither overflow nor merge spuriously.
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_EQ(sched.submit(make_job("C", top)), svc::Admit::kAccepted);
  EXPECT_EQ(sched.submit(make_job("C", 0)), svc::Admit::kAccepted);
  EXPECT_EQ(sched.submit(make_job("C", top)), svc::Admit::kDuplicateJob);
  EXPECT_EQ(sched.submit(make_job("C", 0)), svc::Admit::kDuplicateJob);
  EXPECT_EQ(seen_id_ranges(sched, "C"), 2u);  // [0, 30] and [top, top]
  run_dry(sched);

  // 100 000 dense ids (popped as they queue) leave one range.
  svc::TenantScheduler dense(1024);
  constexpr std::uint64_t kJobs = 100000;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    ASSERT_EQ(dense.submit(make_job("A", id)), svc::Admit::kAccepted) << id;
    if (dense.queued() == 1024) run_dry(dense);
  }
  run_dry(dense);
  EXPECT_EQ(seen_id_ranges(dense, "A"), 1u);
  // A duplicate deep in history is still rejected after every job completed.
  for (const std::uint64_t id : {1u, 2u, 50000u, 99999u, 100000u}) {
    EXPECT_EQ(dense.submit(make_job("A", id)), svc::Admit::kDuplicateJob) << id;
  }
  EXPECT_EQ(dense.submit(make_job("A", kJobs + 1)), svc::Admit::kAccepted);
  EXPECT_EQ(seen_id_ranges(dense, "A"), 1u);
  run_dry(dense);
}

TEST(SvcScheduler, DrainStopsAdmissionThenRunsDry) {
  svc::TenantScheduler sched(64);
  ASSERT_EQ(sched.submit(make_job("A", 1)), svc::Admit::kAccepted);
  sched.drain();
  EXPECT_TRUE(sched.draining());
  EXPECT_EQ(sched.submit(make_job("A", 2)), svc::Admit::kDraining);

  // The queued job still dispatches; after that, pop_batch reports dry.
  std::vector<svc::JobTicket> batch;
  ASSERT_TRUE(sched.pop_batch(8, batch));
  ASSERT_EQ(batch.size(), 1u);
  sched.note_done("A", 1);
  EXPECT_FALSE(sched.pop_batch(8, batch));
  sched.wait_idle();  // must not block: nothing queued or in flight
}

TEST(SvcScheduler, ShutdownFlushesQueuedJobsWithDrainingErrors) {
  svc::TenantScheduler sched(64);
  std::vector<std::string> rejected_rules;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    svc::JobTicket job = make_job("A", i);
    job.on_error = [&](const svc::ErrorReply& e) {
      rejected_rules.push_back(e.rule);
    };
    ASSERT_EQ(sched.submit(std::move(job)), svc::Admit::kAccepted);
  }
  sched.shutdown();
  EXPECT_EQ(rejected_rules,
            (std::vector<std::string>{"svc-draining", "svc-draining",
                                      "svc-draining"}));
  std::vector<svc::JobTicket> batch;
  EXPECT_FALSE(sched.pop_batch(8, batch));
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(SvcScheduler, TenantStatsTrackOutcomes) {
  svc::TenantScheduler sched(2);
  ASSERT_EQ(sched.submit(make_job("A", 1, 3)), svc::Admit::kAccepted);
  ASSERT_EQ(sched.submit(make_job("A", 2, 3)), svc::Admit::kAccepted);
  ASSERT_EQ(sched.submit(make_job("A", 3, 3)), svc::Admit::kQueueFull);
  std::vector<svc::JobTicket> batch;
  ASSERT_TRUE(sched.pop_batch(8, batch));
  EXPECT_EQ(sched.in_flight(), 2u);
  sched.note_done("A", 2);
  EXPECT_EQ(sched.in_flight(), 0u);

  const auto stats = sched.tenant_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, "A");
  EXPECT_EQ(stats[0].second.weight, 3u);
  EXPECT_EQ(stats[0].second.submitted, 2u);
  EXPECT_EQ(stats[0].second.completed, 2u);
  EXPECT_EQ(stats[0].second.rejected, 1u);
}

}  // namespace
