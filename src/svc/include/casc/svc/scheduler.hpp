// Admission control and tenant-fair dispatch for casc::svc.
//
// One bounded, multi-tenant job queue feeding every shard:
//
//   * Admission is a hard bound on TOTAL queued jobs (queue_cap).  A full
//     queue rejects instantly — the connection layer turns that into an
//     svc-queue-full backpressure reply — so heavy traffic degrades into
//     fast rejections, never into unbounded memory or latency.
//   * Dispatch is weighted round-robin with per-tenant credits (the classic
//     WRR scheme from the MPI dynamic-loop-scheduling literature's
//     shared-queue corner): each cycle visits every tenant that has work and
//     grants it up to `weight` jobs.  A tenant with weight w gets a w/W share
//     of dispatch slots under contention and can never be starved — every
//     cycle it is visited once before any tenant is visited twice.
//   * Batches preserve key locality: one pop_batch() call drains up to
//     min(credit, batch_max) consecutive jobs of ONE tenant, which is what
//     lets the shard's MaterializedLoop pool hit (tenants overwhelmingly
//     resubmit the same specs back to back).
//
// Duplicate job ids (per tenant, over the server's lifetime) are rejected at
// admission so replies are unambiguous.  Each tenant keeps its seen ids as
// disjoint [lo, hi] ranges (JobIdRanges), so memory grows with the gaps in
// the id sequence, not with the number of jobs: dense per-connection ids
// collapse to one range.
//
// Thread-safe; every method may be called from any thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "casc/loopir/loop_spec.hpp"
#include "casc/svc/protocol.hpp"

namespace casc::svc {

/// One admitted job: the parsed request plus the reply hooks the executing
/// shard invokes (exactly one of them, exactly once).
struct JobTicket {
  SubmitRequest request;
  loopir::LoopSpec spec;  ///< parsed & semantically valid at admission
  std::function<void(const ResultReply&)> on_result;
  std::function<void(const ErrorReply&)> on_error;
};

enum class Admit : std::uint8_t {
  kAccepted,
  kQueueFull,     ///< backpressure: bounded queue at capacity
  kDraining,      ///< server is draining; no new work
  kDuplicateJob,  ///< (tenant, job id) was already submitted
};

[[nodiscard]] const char* to_string(Admit admit) noexcept;

/// A set of job ids stored as sorted, disjoint, non-adjacent [lo, hi]
/// ranges.  insert() is O(log ranges); adjacent ranges merge on insert.
class JobIdRanges {
 public:
  /// Adds `id` (a no-op when it is already present).
  void insert(std::uint64_t id);
  [[nodiscard]] bool contains(std::uint64_t id) const;
  [[nodiscard]] std::size_t ranges() const noexcept { return ranges_.size(); }

 private:
  std::map<std::uint64_t, std::uint64_t> ranges_;  ///< lo -> hi (inclusive)
};

class TenantScheduler {
 public:
  explicit TenantScheduler(std::size_t queue_cap);

  TenantScheduler(const TenantScheduler&) = delete;
  TenantScheduler& operator=(const TenantScheduler&) = delete;

  /// Admission: O(log id ranges) under one lock.  On kAccepted the ticket is
  /// queued and the tenant's weight is updated to request.weight.
  [[nodiscard]] Admit submit(JobTicket&& job);

  /// Blocks until work is available, then moves up to `max_jobs` jobs of the
  /// WRR-selected tenant into `out` (cleared first).  Returns false when no
  /// work will ever arrive again: shutdown(), or drain() with empty queues.
  [[nodiscard]] bool pop_batch(std::size_t max_jobs, std::vector<JobTicket>& out);

  /// Completion accounting for jobs previously popped (n jobs of `tenant`).
  void note_done(const std::string& tenant, std::size_t n);

  /// Stops admissions (subsequent submits -> kDraining); queued jobs still
  /// dispatch.  Idempotent.
  void drain();

  /// Stops everything: wakes poppers (pop_batch -> false) and discards any
  /// still-queued jobs, invoking their on_error with svc-draining.
  void shutdown();

  /// Blocks until every admitted job has completed (queues empty and no job
  /// between pop_batch and note_done).  Meaningful after drain().
  void wait_idle();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] std::size_t in_flight() const;

  struct TenantStats {
    std::uint32_t weight = 1;
    std::uint64_t submitted = 0;  ///< accepted jobs
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;  ///< queue-full / draining / duplicate
    std::uint64_t seen_id_ranges = 0;  ///< JobIdRanges::ranges() of the tenant
  };
  /// Snapshot, sorted by tenant name.
  [[nodiscard]] std::vector<std::pair<std::string, TenantStats>> tenant_stats()
      const;

 private:
  struct Tenant {
    std::deque<JobTicket> queue;
    JobIdRanges seen_jobs;
    std::uint32_t weight = 1;
    std::uint32_t credit = 0;  ///< dispatch slots left this WRR cycle
    bool in_ring = false;
    TenantStats stats;
  };

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::unordered_map<std::string, Tenant> tenants_;
  std::deque<std::string> ring_;  ///< active tenants in WRR visit order
  std::size_t queue_cap_;
  std::size_t queued_ = 0;
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool shutdown_ = false;
};

}  // namespace casc::svc
