#include "casc/svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "casc/common/check.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/loop_pool.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/fault_injection.hpp"

namespace casc::svc {

// One accepted connection.  The fd is owned by this struct and closed when
// the last shared_ptr drops — job reply hooks hold references, so a client
// that disconnects with jobs in flight keeps the fd alive (writes to it just
// fail and are counted) instead of racing a close.
struct SvcServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Serialized frame write (shard threads and the handler interleave).
  IoStatus send(FrameType type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mutex);
    return write_frame(fd, type, payload);
  }

  /// Unblocks the handler's blocking read without invalidating the fd.
  void shutdown_rw() { ::shutdown(fd, SHUT_RDWR); }

  int fd = -1;
  std::mutex write_mutex;
};

SvcServer::SvcServer(SvcConfig config) : config_(std::move(config)),
                                         scheduler_(config_.queue_cap) {
  CASC_CHECK(!config_.socket_path.empty(), "SvcServer: socket_path is empty");
  CASC_CHECK(config_.num_shards >= 1, "SvcServer: num_shards must be >= 1");
  CASC_CHECK(config_.threads_per_shard >= 1,
             "SvcServer: threads_per_shard must be >= 1");
  CASC_CHECK(config_.batch_max >= 1, "SvcServer: batch_max must be >= 1");
  CASC_CHECK(config_.socket_path.size() < sizeof(sockaddr_un{}.sun_path),
             "SvcServer: socket_path too long for AF_UNIX (" +
                 std::to_string(config_.socket_path.size()) + " bytes)");
}

SvcServer::~SvcServer() { stop(); }

void SvcServer::start() {
  CASC_CHECK(!started_.exchange(true), "SvcServer::start() called twice");

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CASC_CHECK(listen_fd_ >= 0,
             std::string("SvcServer: socket() failed: ") + std::strerror(errno));
  ::unlink(config_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    CASC_CHECK(false, "SvcServer: bind(" + config_.socket_path +
                          ") failed: " + std::strerror(err));
  }
  CASC_CHECK(::listen(listen_fd_, 128) == 0,
             std::string("SvcServer: listen() failed: ") + std::strerror(errno));

  live_shards_.store(config_.num_shards);
  shard_state_.clear();
  for (unsigned s = 0; s < config_.num_shards; ++s) {
    shard_state_.push_back(std::make_unique<ShardState>());
  }
  shards_.reserve(config_.num_shards);
  for (unsigned s = 0; s < config_.num_shards; ++s) {
    shards_.emplace_back([this, s] { shard_main(s); });
  }
  listener_ = std::thread([this] { listener_main(); });
}

void SvcServer::request_stop() {
  if (stopping_.exchange(true)) return;
  // Unblock accept() first so no new connections slip in, then flush the
  // queue (on_error hooks still write live sockets), then unblock every
  // handler's blocking read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  scheduler_.shutdown();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& conn : connections_) conn->shutdown_rw();
}

void SvcServer::join_all() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (joined_.exchange(true)) return;
  if (listener_.joinable()) listener_.join();
  for (std::thread& t : shards_) {
    if (t.joinable()) t.join();
  }
  // The listener has exited, so handlers_ can no longer grow.
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  {
    std::lock_guard<std::mutex> conn_lock(conn_mutex_);
    connections_.clear();
  }
}

void SvcServer::wait() {
  if (!started_.load()) return;
  join_all();
}

void SvcServer::stop() {
  if (!started_.load()) return;
  request_stop();
  join_all();
}

void SvcServer::listener_main() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or broken): stop accepting
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.push_back(conn);
    handlers_.emplace_back(
        [this, conn = std::move(conn)]() mutable { handle_connection(std::move(conn)); });
  }
}

void SvcServer::handle_connection(std::shared_ptr<Connection> conn) {
  Frame frame;
  bool open = true;
  while (open && !stopping_.load()) {
    const IoStatus status = read_frame(conn->fd, frame);
    switch (status) {
      case IoStatus::kOk:
        break;
      case IoStatus::kTooBig:
        ++frames_rejected_;
        (void)conn->send(FrameType::kError,
                         encode_error({0, "svc-frame-too-big",
                                       "frame payload exceeds " +
                                           std::to_string(kMaxFramePayload) +
                                           " bytes"}));
        open = false;
        continue;
      case IoStatus::kBadType:
        ++frames_rejected_;
        (void)conn->send(FrameType::kError,
                         encode_error({0, "svc-bad-frame",
                                       "unknown frame type byte"}));
        open = false;
        continue;
      case IoStatus::kTorn:
        ++frames_rejected_;
        open = false;
        continue;
      case IoStatus::kEof:
      case IoStatus::kError:
        open = false;
        continue;
    }

    switch (frame.type) {
      case FrameType::kSubmit:
        handle_submit(conn, frame.payload);
        break;
      case FrameType::kStat:
        (void)conn->send(FrameType::kStatReply, encode_stats(stats()));
        break;
      case FrameType::kDrain: {
        // Graceful drain: close admission, let the shards run the queues
        // dry, ack with the grand completion total, then stop the server.
        scheduler_.drain();
        scheduler_.wait_idle();
        std::uint64_t completed = 0;
        for (const auto& [name, ts] : scheduler_.tenant_stats()) {
          completed += ts.completed;
        }
        (void)conn->send(FrameType::kDrainAck,
                         "completed " + std::to_string(completed) + "\n");
        request_stop();
        open = false;
        break;
      }
      default:
        // Server-to-client frame types arriving at the server.
        ++frames_rejected_;
        (void)conn->send(
            FrameType::kError,
            encode_error({0, "svc-bad-frame",
                          "frame type not valid in the client->server "
                          "direction"}));
        open = false;
        break;
    }
  }
  // Let the peer observe EOF now; the fd itself is closed when the last
  // reply hook drops its reference.
  conn->shutdown_rw();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    if (it->get() == conn.get()) {
      connections_.erase(it);
      break;
    }
  }
}

void SvcServer::handle_submit(const std::shared_ptr<Connection>& conn,
                              const std::string& payload) {
  const auto reply_error = [&](std::uint64_t job, const std::string& rule,
                               const std::string& message) {
    ++frames_rejected_;
    if (conn->send(FrameType::kError, encode_error({job, rule, message})) !=
        IoStatus::kOk) {
      ++reply_failures_;
    }
  };

  SubmitRequest req;
  common::DiagnosticList diags;
  if (!parse_submit(payload, req, diags)) {
    const common::Diagnostic* first = diags.first_error();
    reply_error(req.job, first ? first->rule : "svc-bad-header",
                first ? first->message : "unusable job header");
    return;
  }

  // Pipeline chains are a batch-side feature (cascsim / bench run them whole
  // against the plan-placed arena); the service schedules single-loop jobs.
  // Detect the directive BEFORE LoopSpec::parse so the client hears which
  // FEATURE is unsupported, not a bogus "unknown directive" syntax error.
  if (loopir::is_pipeline_text(req.spec_text)) {
    reply_error(req.job, "svc-spec-unsupported",
                "spec is a pipeline chain (directive 'pipeline'); cascading "
                "it requires chain scheduling (one executor spanning the "
                "stages plus a plan-placed staging arena), which this "
                "service does not run yet — submit the stages as "
                "independent loop jobs instead");
    return;
  }

  common::DiagnosticList spec_diags;
  loopir::LoopSpec spec = loopir::LoopSpec::parse(req.spec_text, spec_diags);
  if (!spec_diags.ok()) {
    reply_error(req.job, "svc-spec-invalid",
                common::render_text(*spec_diags.first_error()));
    return;
  }
  if (spec.trip > config_.max_job_trip) {
    reply_error(req.job, "svc-job-too-large",
                "trip " + std::to_string(spec.trip) + " exceeds the admission cap " +
                    std::to_string(config_.max_job_trip));
    return;
  }
  try {
    (void)spec.instantiate();  // semantic gate; cheap relative to materialize
  } catch (const std::exception& e) {
    reply_error(req.job, "svc-spec-invalid", e.what());
    return;
  }
  // Reduction specs are analyzable (the classifier names the operand and
  // merge operator) but not yet runnable: the service has no privatization
  // runtime to stage per-worker partial accumulators.  Refuse precisely so
  // the client knows what the spec needs rather than why it is "invalid".
  if (const auto red = exec::find_reduction_operand(spec)) {
    reply_error(req.job, "svc-spec-unsupported",
                "operand '" + red->name + "' is a commutative '" +
                    red->reduce_op + "' reduction (class " + red->klass +
                    "); cascading it requires privatization (per-worker "
                    "partial accumulators merged on token hand-off), which "
                    "this service does not run yet");
    return;
  }

  JobTicket ticket;
  ticket.request = std::move(req);
  ticket.spec = std::move(spec);
  ticket.on_result = [this, conn](const ResultReply& r) {
    if (conn->send(FrameType::kResult, encode_result(r)) != IoStatus::kOk) {
      ++reply_failures_;
    }
  };
  ticket.on_error = [this, conn](const ErrorReply& e) {
    if (conn->send(FrameType::kError, encode_error(e)) != IoStatus::kOk) {
      ++reply_failures_;
    }
  };

  const std::uint64_t job_id = ticket.request.job;
  const Admit admit = scheduler_.submit(std::move(ticket));
  if (admit != Admit::kAccepted) {
    const char* message = admit == Admit::kQueueFull
                              ? "admission queue is at capacity; retry later"
                          : admit == Admit::kDraining
                              ? "server is draining; no new jobs"
                              : "job id was already submitted by this tenant";
    reply_error(job_id, to_string(admit), message);
  }
}

void SvcServer::shard_main(unsigned shard_id) {
  ShardState& state = *shard_state_[shard_id];

  rt::ExecutorConfig exec_cfg;
  exec_cfg.num_threads = config_.threads_per_shard;
  exec_cfg.name = "shard-" + std::to_string(shard_id);
  if (config_.pin_shards) {
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned k = 0; k < config_.threads_per_shard; ++k) {
      exec_cfg.cpus.push_back(
          (shard_id * config_.threads_per_shard + k) % ncpu);
    }
  }
  // The executor is constructed on the shard thread so worker 0's affinity
  // lands on this thread, i.e. the shard thread IS ring position 0.
  rt::CascadeExecutor executor(exec_cfg);
  exec::LoopPool pool;

  std::vector<JobTicket> batch;
  while (!stopping_.load()) {
    if (!scheduler_.pop_batch(config_.batch_max, batch)) break;
    const std::uint64_t batch_id = batch_counter_.fetch_add(1) + 1;
    ++state.batches;
    for (JobTicket& job : batch) {
      (void)execute_job(shard_id, pool, executor, job, batch_id);
    }
    batch.clear();
    const exec::LoopPoolStats pstats = pool.stats();
    state.pool_hits.store(pstats.hits);
    state.pool_misses.store(pstats.misses);
    // Quarantine: a shard that keeps failing jobs stops pulling work and
    // leaves the remaining shards to absorb the load.  The last live shard
    // soldiers on regardless — like worker 0 of a cascade, somebody must
    // keep executing.
    if (state.faults.load() >= config_.max_shard_faults &&
        !state.quarantined.load()) {
      unsigned live = live_shards_.load();
      while (live > 1 &&
             !live_shards_.compare_exchange_weak(live, live - 1)) {
      }
      if (live > 1) {
        state.quarantined.store(true);
        break;
      }
    }
  }
}

bool SvcServer::execute_job(unsigned shard_id, exec::LoopPool& pool,
                            rt::CascadeExecutor& executor, JobTicket& job,
                            std::uint64_t batch_id) {
  ShardState& state = *shard_state_[shard_id];
  try {
    if (config_.before_execute) config_.before_execute(shard_id, job);

    exec::LoopLease lease = pool.acquire(job.spec, job.request.spec_text);

    exec::RtOptions opt;
    opt.helper = job.request.helper;
    opt.chunk_bytes = job.request.chunk_bytes != 0 ? job.request.chunk_bytes
                                                   : config_.default_chunk_bytes;
    rt::ChaosPlan chaos_plan;
    if (job.request.chaos_seed.has_value()) {
      const std::uint64_t ipc =
          exec::plan_for(lease.loop(), opt.chunk_bytes).iters_per_chunk();
      const std::uint64_t total = lease.loop().num_iterations();
      const std::uint64_t num_chunks =
          total == 0 ? 0 : (total + ipc - 1) / ipc;
      chaos_plan = rt::ChaosPlan::make(*job.request.chaos_seed, num_chunks, ipc);
      opt.chaos = &chaos_plan;
      ++state.chaos_jobs;
    }

    const exec::ExecResult result = exec::run_cascaded(lease.loop(), executor, opt);

    ResultReply reply;
    reply.job = job.request.job;
    reply.tenant = job.request.tenant;
    reply.shard = shard_id;
    reply.digest = result.digest;
    reply.rw_checksum = result.rw_checksum;
    reply.seconds = result.seconds;
    reply.reused = lease.reused();
    reply.degraded = result.degraded;
    reply.helper_faults = result.helper_faults;
    reply.chunks_reclaimed = result.chunks_reclaimed;
    reply.demotion = result.demotion_level;
    reply.batch = batch_id;
    ++state.jobs;
    if (result.degraded) ++state.degraded;
    // Completion is recorded before the reply leaves the process: a client
    // that has read reply N and then asks for stats must see N completions.
    scheduler_.note_done(job.request.tenant, 1);
    if (job.on_result) job.on_result(reply);
    return true;
  } catch (const std::exception& e) {
    ++state.faults;
    scheduler_.note_done(job.request.tenant, 1);
    if (job.on_error) {
      job.on_error({job.request.job, "svc-job-failed", e.what()});
    }
    return false;
  }
}

std::vector<std::pair<std::string, std::uint64_t>> SvcServer::stats() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.emplace_back("svc.shards", config_.num_shards);
  out.emplace_back("svc.live_shards", live_shards_.load());
  out.emplace_back("svc.queued", scheduler_.queued());
  out.emplace_back("svc.in_flight", scheduler_.in_flight());
  out.emplace_back("svc.draining", scheduler_.draining() ? 1 : 0);
  out.emplace_back("svc.batches", batch_counter_.load());
  out.emplace_back("svc.frames_rejected", frames_rejected_.load());
  out.emplace_back("svc.reply_failures", reply_failures_.load());
  for (const auto& [name, ts] : scheduler_.tenant_stats()) {
    out.emplace_back("tenant." + name + ".weight", ts.weight);
    out.emplace_back("tenant." + name + ".submitted", ts.submitted);
    out.emplace_back("tenant." + name + ".completed", ts.completed);
    out.emplace_back("tenant." + name + ".rejected", ts.rejected);
  }
  for (unsigned s = 0; s < shard_state_.size(); ++s) {
    const ShardState& st = *shard_state_[s];
    const std::string prefix = "shard." + std::to_string(s) + ".";
    out.emplace_back(prefix + "jobs", st.jobs.load());
    out.emplace_back(prefix + "batches", st.batches.load());
    out.emplace_back(prefix + "pool_hits", st.pool_hits.load());
    out.emplace_back(prefix + "pool_misses", st.pool_misses.load());
    out.emplace_back(prefix + "degraded", st.degraded.load());
    out.emplace_back(prefix + "chaos_jobs", st.chaos_jobs.load());
    out.emplace_back(prefix + "faults", st.faults.load());
    out.emplace_back(prefix + "quarantined", st.quarantined.load() ? 1 : 0);
  }
  return out;
}

}  // namespace casc::svc
