// cascd's engine: a multi-tenant cascade service over a Unix-domain socket.
//
// Topology: one listener thread accepts connections; one handler thread per
// connection reads frames and performs admission (parse + validate + bounded
// enqueue, with error replies for everything malformed or rejected); N shard
// threads each own a private CascadeExecutor — N independent, concurrently
// spinning token rings — plus a MaterializedLoop reuse pool, and pull
// tenant-fair batches from the shared TenantScheduler.  Results are written
// back on the submitting connection from the shard thread (per-connection
// write lock).
//
// Core partitioning: with pin_shards, shard s's executor workers are pinned
// to the contiguous CPU slice [s*threads_per_shard, (s+1)*threads_per_shard)
// (mod the machine), so rings do not migrate onto each other's cores.
//
// Fail-soft: each shard's executor absorbs helper faults (rt/executor.hpp), so
// helper-site faults (including per-job seeded chaos) degrade instead of
// aborting.  If a job still escapes with an exception (an exec-phase fault
// or internal error), the job is answered with svc-job-failed and charged to
// the shard; at max_shard_faults the shard is quarantined — it stops pulling
// work and the remaining shards absorb the load — unless it is the last
// shard standing, which keeps executing like worker 0 of a cascade.
//
// Lifecycle: start() binds and spawns everything; a kDrain frame stops
// admission, lets the queues run dry, acks, and stops the server; stop() is
// the hard variant (queued jobs are answered with svc-draining).  wait()
// blocks until either form of shutdown has finished.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "casc/svc/scheduler.hpp"

namespace casc::exec {
class LoopPool;
}
namespace casc::rt {
class CascadeExecutor;
}

namespace casc::svc {

struct SvcConfig {
  std::string socket_path;
  /// Concurrent token rings (one CascadeExecutor each).
  unsigned num_shards = 1;
  /// Workers per ring (the shard thread is worker 0 of its executor).
  unsigned threads_per_shard = 2;
  /// Bound on TOTAL queued jobs across tenants (admission control).
  std::size_t queue_cap = 1024;
  /// Max jobs one pop_batch dispatch may carry (single-tenant, key-local).
  std::size_t batch_max = 32;
  /// Chunk byte budget for jobs that do not set one.
  std::uint64_t default_chunk_bytes = 64 * 1024;
  /// Admission cap on a job's trip count (svc-job-too-large beyond it).
  std::uint64_t max_job_trip = 1ull << 24;
  /// Pin each shard's workers to its own contiguous CPU slice.
  bool pin_shards = false;
  /// Job failures tolerated per shard before it is quarantined (the last
  /// live shard is never quarantined).
  unsigned max_shard_faults = 3;
  /// Test seam: runs on the shard thread immediately before each job
  /// executes; a throw is accounted exactly like a job failure.  Null in
  /// production.
  std::function<void(unsigned shard, const JobTicket& job)> before_execute;
};

class SvcServer {
 public:
  explicit SvcServer(SvcConfig config);
  ~SvcServer();

  SvcServer(const SvcServer&) = delete;
  SvcServer& operator=(const SvcServer&) = delete;

  /// Binds the socket (unlinking a stale one) and spawns listener + shards.
  /// Throws CheckFailure if the socket cannot be bound.
  void start();

  /// Blocks until the server has stopped (drain frame or stop()) and every
  /// thread has been joined.
  void wait();

  /// Hard stop: rejects queued jobs with svc-draining, closes connections,
  /// joins all threads.  Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }

  /// Flat counter snapshot (svc.*, tenant.*, shard.*) — the kStat payload.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> stats() const;

 private:
  struct Connection;
  struct ShardState {
    std::atomic<std::uint64_t> jobs{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> pool_hits{0};
    std::atomic<std::uint64_t> pool_misses{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> chaos_jobs{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<bool> quarantined{false};
  };

  void listener_main();
  void handle_connection(std::shared_ptr<Connection> conn);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const std::string& payload);
  void shard_main(unsigned shard_id);
  /// Executes one ticket on shard `shard_id`; returns false when the job
  /// escaped with an exception (already answered + charged).
  bool execute_job(unsigned shard_id, exec::LoopPool& pool,
                   rt::CascadeExecutor& executor, JobTicket& job,
                   std::uint64_t batch_id);
  /// Initiates shutdown without joining (callable from server threads).
  void request_stop();
  void join_all();

  SvcConfig config_;
  TenantScheduler scheduler_;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> joined_{false};
  std::mutex lifecycle_mutex_;  ///< serializes stop()/wait() joins

  std::thread listener_;
  std::vector<std::thread> shards_;
  std::vector<std::unique_ptr<ShardState>> shard_state_;
  std::atomic<unsigned> live_shards_{0};
  std::atomic<std::uint64_t> batch_counter_{0};
  std::atomic<std::uint64_t> reply_failures_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};

  std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> handlers_;
};

}  // namespace casc::svc
