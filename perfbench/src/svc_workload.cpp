// svc_jobs: an in-process cascade service (SvcServer, 2 shards x 2 workers)
// driven by a closed loop of 2 client threads, one connection each, each
// keeping a small window of submits outstanding.  The seeded job stream mixes
//   * hot jobs     repeating a few small specs, so the shard's LoopPool hits;
//   * cold jobs    whose spec text is unique, so each one materializes and
//                  proves;
//   * prefetch jobs on the hot specs, which skip the restructure gate.
// The loop itself is cheap here; admission, the scheduler, the pool, the
// proof and the reply path are what the job latency is made of.  Every reply
// is checked against a sequential reference computed in this process.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "casc/common/check.hpp"
#include "casc/common/rng.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/svc/client.hpp"
#include "casc/svc/server.hpp"
#include "target.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = casc::svc;
namespace exec = casc::exec;

namespace {

constexpr unsigned kShards = 2;
constexpr unsigned kThreadsPerShard = 2;
constexpr unsigned kClients = 2;
constexpr std::size_t kWindow = 2;  ///< outstanding submits per connection
constexpr std::size_t kHotSpecs = 4;  ///< one per make_spec shape
constexpr std::uint64_t kHotTrip = 4096;
/// The closed loop runs in phases of this length; after each, every hot
/// spec's run_reference is timed kReferenceReps times.
constexpr double kPhaseSeconds = 1.0;
constexpr int kReferenceReps = 5;
// Job mix, in percent: the rest are hot restructure jobs.
constexpr std::uint64_t kColdPct = 10;
constexpr std::uint64_t kPrefetchPct = 10;
/// Set-up is cheap here, so a run repeats it for this long (see kMaxSetups).
constexpr double kSetupSeconds = 0.5;
/// A reply that takes longer than this is counted missing.
constexpr int kReplyTimeoutMs = 30000;

/// One loop of trip 2K-8K in one of four shapes: two direct streams, a
/// read-modify-write stream, an indexed gather, and an spmv-like row.
std::string make_spec(const std::string& name, std::uint64_t shape,
                      std::uint64_t trip, std::uint64_t index_seed) {
  const std::string t = std::to_string(trip);
  std::string s = "loop " + name + "\ntrip " + t + "\ncompute 12 9\n";
  switch (shape % 4) {
    case 0:
      s += "layout staggered\narray a 8 " + t + " ro\narray b 8 " + t +
           " ro\narray c 8 " + t + " rw\naccess a read\naccess b read\naccess c write\n";
      break;
    case 1:
      s += "layout staggered\narray v 8 " + t + " ro\narray y 8 " + t +
           " rw\naccess v read\naccess y read\naccess y write\n";
      break;
    case 2:
      s += "layout conflicting\narray x 8 4096 ro\narray y 8 " + t + " rw\nindex idx " +
           t + " random " + std::to_string(index_seed) +
           "\naccess x read via idx\naccess y write\n";
      break;
    default:
      s += "layout conflicting\narray w 8 " + t + " ro\narray x 8 4096 ro\narray y 8 " +
           t + " rw\nindex idx " + t + " random " + std::to_string(index_seed) +
           "\naccess w read\naccess x read via idx\naccess y read\naccess y write\n";
      break;
  }
  return s;
}

/// Digest, checksum and sequential wall time of one spec, in this process.
struct Reference {
  std::uint64_t digest = 0;
  std::uint64_t rw_checksum = 0;
  double seconds = 0.0;  ///< wall of the public run_reference call
};

Reference reference_of(const std::string& text) {
  exec::MaterializedLoop loop(casc::loopir::LoopSpec::parse(text));
  const double t = now_s();
  const exec::ExecResult r = exec::run_reference(loop);
  return {r.digest, r.rw_checksum, now_s() - t};
}

/// One submitted job, as the client saw it.
struct JobRecord {
  std::uint64_t id = 0;
  int hot = -1;           ///< index of the hot spec, -1 for a cold job
  std::string cold_text;  ///< the unique spec text of a cold job
  bool prefetch = false;
  int phase = 0;  ///< closed-loop phase the job was sent in
  double sent = 0.0;
  double done = 0.0;
  bool answered = false;
  svc::ResultReply reply;
  std::string error;  ///< error rule, transport failure, or "no reply"
};

/// One client connection's closed loop: keep `kWindow` submits in flight
/// until `deadline`, then drain the replies still owed.
struct Client {
  unsigned index = 0;
  std::string tenant;
  svc::SvcClient conn;
  casc::common::Rng rng;
  std::uint64_t next_job = 1;
  std::vector<JobRecord> records;

  Client(unsigned idx, std::uint64_t seed) : index(idx), rng(seed) {
    tenant = "t" + std::to_string(idx);
  }

  JobRecord next_record(const std::vector<std::string>& hot, std::uint64_t seed,
                        int phase) {
    JobRecord rec;
    rec.id = next_job++;
    rec.phase = phase;
    const std::uint64_t u = rng.below(100);
    if (u < kColdPct) {
      rec.cold_text = make_spec("cold_s" + std::to_string(seed) + "_c" +
                                    std::to_string(index) + "_j" + std::to_string(rec.id),
                                rng.below(4), rng.in_range(2048, 8192),
                                rng.in_range(1, 1u << 30));
    } else {
      rec.hot = static_cast<int>(rng.below(hot.size()));
      rec.prefetch = u < kColdPct + kPrefetchPct;
    }
    return rec;
  }

  /// Sends `rec` (appending it to records) and returns false on a broken
  /// connection.
  bool send(JobRecord rec, const std::vector<std::string>& hot,
            std::unordered_map<std::uint64_t, std::size_t>& pending) {
    svc::SubmitRequest req;
    req.tenant = tenant;
    req.job = rec.id;
    req.helper = rec.prefetch ? svc::HelperMode::kPrefetch : svc::HelperMode::kRestructure;
    req.spec_text = rec.hot >= 0 ? hot[static_cast<std::size_t>(rec.hot)] : rec.cold_text;
    rec.sent = now_s();
    const bool ok = conn.send_submit(req);
    if (!ok) rec.error = "send failed: " + conn.last_error();
    pending[rec.id] = records.size();
    records.push_back(std::move(rec));
    return ok;
  }

  /// Reads one reply into its record; false when the connection is unusable
  /// or silent for longer than the reply timeout.
  bool receive(std::unordered_map<std::uint64_t, std::size_t>& pending) {
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) return false;
    svc::Reply reply = conn.read_reply();
    const double t = now_s();
    std::uint64_t job = 0;
    if (reply.kind == svc::Reply::Kind::kResult) {
      job = reply.result.job;
    } else if (reply.kind == svc::Reply::Kind::kError) {
      job = reply.error.job;
    } else {
      return false;
    }
    const auto it = pending.find(job);
    if (it == pending.end()) return true;  // unattributable; the job stays owed
    JobRecord& rec = records[it->second];
    rec.done = t;
    rec.answered = reply.kind == svc::Reply::Kind::kResult;
    if (rec.answered) {
      rec.reply = reply.result;
    } else {
      rec.error = reply.error.rule;
    }
    pending.erase(it);
    return true;
  }

  void drive(const std::vector<std::string>& hot, std::uint64_t seed, double deadline,
             int phase) {
    std::unordered_map<std::uint64_t, std::size_t> pending;
    bool healthy = true;
    while (healthy) {
      while (pending.size() < kWindow && now_s() < deadline) {
        if (!send(next_record(hot, seed, phase), hot, pending)) {
          healthy = false;
          break;
        }
      }
      if (pending.empty() || !healthy) break;
      healthy = receive(pending);
    }
    for (const auto& [job, idx] : pending) {
      if (records[idx].error.empty()) records[idx].error = "no reply";
    }
  }
};

/// A running server with its client connections.
struct Service {
  std::unique_ptr<svc::SvcServer> server;
  std::vector<std::unique_ptr<Client>> clients;
};

Service start_service(const Options& o, int instance) {
  Service s;
  svc::SvcConfig cfg;
  cfg.socket_path = o.out_dir + "/svc-" + std::to_string(::getpid()) + "-" +
                    std::to_string(instance) + ".sock";
  cfg.num_shards = kShards;
  cfg.threads_per_shard = kThreadsPerShard;
  s.server = std::make_unique<svc::SvcServer>(cfg);
  s.server->start();
  for (unsigned k = 0; k < kClients; ++k) {
    casc::common::Rng seeder(o.seed * 0x9e3779b97f4a7c15ull + k);
    auto c = std::make_unique<Client>(k, seeder.next());
    CASC_CHECK(c->conn.connect(cfg.socket_path),
               "cannot connect to " + cfg.socket_path + ": " + c->conn.last_error());
    s.clients.push_back(std::move(c));
  }
  return s;
}

std::uint64_t counter(const std::vector<std::pair<std::string, std::uint64_t>>& stats,
                      const std::string& name) {
  for (const auto& [k, v] : stats) {
    if (k == name) return v;
  }
  return 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

Outcome run_svc_jobs(const Options& o) {
  Outcome out;
  out.threads = kShards * kThreadsPerShard;
  out.connections = kClients;

  // The probe executor's log is the trace's clock from the start, so the
  // client spans and the probe's worker phases share one time axis.
  std::unique_ptr<casc::telemetry::EventLog> log;
  if (o.trace) log = std::make_unique<casc::telemetry::EventLog>(kThreadsPerShard, 1u << 12);
  SpanLog spans(o.trace, log.get());
  std::uint64_t op = 0;
  Tally tally;
  tally.corrupt_next_reference = o.corrupt_reference;

  // The hot set's shapes and trips are fixed, so every seed asks the same
  // work of the service; the seed picks the index data and the job stream.
  casc::common::Rng rng(o.seed);
  std::vector<std::string> hot;
  for (std::size_t k = 0; k < kHotSpecs; ++k) {
    hot.push_back(make_spec("hot" + std::to_string(k), k, kHotTrip,
                            rng.in_range(1, 1u << 30)));
  }

  // ---- set-up: server + connections, references, one warm-up job per spec --
  std::vector<double> setup_s;
  std::vector<Reference> hot_ref;
  Service service;
  const double setup_start = now_s();
  for (int i = 0; o.more_setups(i, now_s() - setup_start, kSetupSeconds); ++i) {
    service = Service{};
    const int root = spans.open("setup", "bench", ++op);
    const double t = now_s();
    service = start_service(o, i);
    hot_ref.clear();
    for (const std::string& text : hot) hot_ref.push_back(reference_of(text));
    Client& c = *service.clients.front();
    std::unordered_map<std::uint64_t, std::size_t> pending;
    for (std::size_t k = 0; k < hot.size(); ++k) {
      JobRecord rec;
      rec.id = c.next_job++;
      rec.hot = static_cast<int>(k);
      (void)c.send(std::move(rec), hot, pending);
    }
    while (!pending.empty() && c.receive(pending)) {
    }
    setup_s.push_back(now_s() - t);
    spans.close(root);
    for (JobRecord& rec : c.records) {
      const Reference& ref = hot_ref[static_cast<std::size_t>(rec.hot)];
      ++tally.attempted;
      if (!rec.answered || rec.reply.digest != ref.digest ||
          rec.reply.rw_checksum != ref.rw_checksum) {
        ++tally.failed;
      }
    }
    c.records.clear();
  }

  // ---- the closed loop, in phases interleaved with reference bursts ---------
  // A job's reference time comes from the burst right after its phase, so
  // cascaded and sequential walls are taken under the same host conditions.
  std::vector<std::unique_ptr<exec::MaterializedLoop>> ref_loops;
  for (const std::string& text : hot) {
    ref_loops.push_back(
        std::make_unique<exec::MaterializedLoop>(casc::loopir::LoopSpec::parse(text)));
  }
  std::vector<std::vector<double>> phase_ref;  // [phase][hot spec] median wall
  const auto before = service.server->stats();
  const double start = now_s();
  double driven = 0.0;  // seconds the clients were driving
  for (int phase = 0; phase == 0 || now_s() - start < o.seconds; ++phase) {
    const double phase_start = now_s();
    const double deadline = std::min(start + o.seconds, phase_start + kPhaseSeconds);
    std::vector<std::thread> threads;
    for (auto& c : service.clients) {
      threads.emplace_back([&hot, &o, deadline, phase, client = c.get()] {
        client->drive(hot, o.seed, deadline, phase);
      });
    }
    for (std::thread& th : threads) th.join();
    driven += now_s() - phase_start;

    std::vector<std::vector<double>> samples(hot.size());
    for (int rep = 0; rep < kReferenceReps; ++rep) {
      for (std::size_t k = 0; k < hot.size(); ++k) {
        const int span = spans.open("run_reference (hot spec)", "exec", ++op);
        const double t = now_s();
        (void)exec::run_reference(*ref_loops[k]);
        samples[k].push_back(now_s() - t);
        spans.close(span);
      }
    }
    phase_ref.emplace_back();
    for (std::vector<double>& v : samples) phase_ref.back().push_back(median(std::move(v)));
  }
  const auto after = service.server->stats();
  for (auto& c : service.clients) c->conn.close();
  service.server->stop();

  // ---- check every reply against the in-process reference -------------------
  std::vector<double> latency, reference_s, ratio, run_ms, outside_ms;
  std::uint64_t completed = 0;
  // Client timestamps are steady-clock seconds; spans go on the log's clock.
  const double shift = static_cast<double>(spans.now_ns()) * 1e-9 - now_s();
  for (auto& c : service.clients) {
    for (JobRecord& rec : c->records) {
      const bool cold = rec.hot < 0;
      Reference ref;
      if (cold) {
        const int span = spans.open("reference (cold spec)", "exec", ++op);
        ref = reference_of(rec.cold_text);
        spans.close(span);
      } else {
        ref = hot_ref[static_cast<std::size_t>(rec.hot)];
        ref.seconds = phase_ref[static_cast<std::size_t>(rec.phase)]
                               [static_cast<std::size_t>(rec.hot)];
      }
      if (tally.corrupt_next_reference) {
        ref.digest ^= 1;
        tally.corrupt_next_reference = false;
      }
      ++tally.attempted;
      if (!rec.answered || rec.reply.digest != ref.digest ||
          rec.reply.rw_checksum != ref.rw_checksum) {
        ++tally.failed;
        continue;
      }
      ++completed;
      const double lat = rec.done - rec.sent;
      latency.push_back(lat);
      reference_s.push_back(ref.seconds);
      ratio.push_back(lat / ref.seconds);
      run_ms.push_back(rec.reply.seconds * 1e3);
      outside_ms.push_back((lat - rec.reply.seconds) * 1e3);
      if (spans.enabled()) {
        Span s;
        s.name = cold ? "svc job (cold)" : rec.prefetch ? "svc job (prefetch)" : "svc job (hot)";
        s.layer = "svc";
        s.op = ++op;
        s.tid = c->index + 1;
        s.begin_ns = static_cast<std::uint64_t>((rec.sent + shift) * 1e9);
        s.end_ns = static_cast<std::uint64_t>((rec.done + shift) * 1e9);
        spans.add(std::move(s));
      }
    }
  }
  const double p50 = median(latency);

  std::uint64_t jobs = 0, batches = 0, hits = 0, misses = 0;
  std::uint64_t min_jobs = ~0ull, max_jobs = 0;
  batches = counter(after, "svc.batches") - counter(before, "svc.batches");
  for (unsigned s = 0; s < kShards; ++s) {
    const std::string p = "shard." + std::to_string(s) + ".";
    const std::uint64_t j = counter(after, p + "jobs") - counter(before, p + "jobs");
    jobs += j;
    min_jobs = std::min(min_jobs, j);
    max_jobs = std::max(max_jobs, j);
    hits += counter(after, p + "pool_hits") - counter(before, p + "pool_hits");
    misses += counter(after, p + "pool_misses") - counter(before, p + "pool_misses");
  }

  const Kind E = o.trace ? Kind::kInfo : Kind::kEndToEnd;
  const Kind I = Kind::kInfo;
  const Tail t = tail(latency);
  out.sheet.add("setup_s", median(setup_s), "s", E,
                "median of " + std::to_string(setup_s.size()) + " set-ups");
  out.sheet.add("cascade_s", p50, "s", E,
                "job latency, send -> reply, n=" + std::to_string(latency.size()));
  out.sheet.add("cascade_tail_s", t.value, "s", I,
                "p" + std::to_string(t.percentile).substr(0, 5) + " of n=" +
                    std::to_string(t.samples) + " (10 samples beyond it)");
  out.sheet.add("reference_s", median(reference_s), "s", I,
                "in-process run_reference of each job's spec");
  out.sheet.add("cascade_over_ref", median(ratio), "ratio", E,
                "median over jobs of latency / reference");
  out.sheet.add("jobs_per_s", static_cast<double>(completed) / driven,
                "1/s", I, "closed loop, " + std::to_string(kClients) + " connections x " +
                              std::to_string(kWindow) + " outstanding");
  out.sheet.add("job_p50_ms", p50 * 1e3, "ms", Kind::kInfo);
  out.sheet.add("job_p99_ms", percentile(latency, 0.99) * 1e3, "ms", Kind::kInfo);

  if (o.trace) {
    const Kind L = Kind::kLayer;
    out.sheet.add("svc.reply_run_ms_p50", median(run_ms), "ms", Kind::kInfo,
                  "ResultReply.seconds");
    out.sheet.add("svc.outside_run_ms_p50", median(outside_ms), "ms", Kind::kInfo,
                  "client latency - reply seconds");
    out.sheet.add("svc.batch_mean",
                  batches > 0 ? static_cast<double>(jobs) / static_cast<double>(batches) : 0.0,
                  "count", L, "jobs per dispatch batch");
    out.sheet.add("svc.shard_balance",
                  max_jobs > 0 ? static_cast<double>(min_jobs) / static_cast<double>(max_jobs)
                               : 0.0,
                  "ratio", L, "min / max shard jobs");
    out.sheet.add("exec.pool_hit_ratio",
                  hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                    : 0.0,
                  "ratio", L, "LoopPool hits / acquires, the measured share of repeated specs");

    // The layers below the service, probed from outside on the hot specs
    // with the shard's ring size: per-job figures are the mean over them.
    exec::RtOptions ropt;
    ropt.helper = exec::HelperMode::kRestructure;
    ropt.chunk_bytes = 64 * 1024;
    Target target(hot, false, ropt, spans, ++op);
    casc::rt::ExecutorConfig cfg;
    cfg.num_threads = kThreadsPerShard;
    casc::rt::CascadeExecutor plain(cfg);
    cfg.event_log = log.get();
    casc::rt::CascadeExecutor traced(cfg);
    const LayerReport r = measure_layers(target, traced, *log, plain, 2.0, spans, op, tally);
    add_layer_metrics(out.sheet, r, static_cast<double>(hot.size()), p50);
    add_self_times(out.sheet, spans);
    spans.write_trace(o.out_dir + "/trace-" + o.workload + "-seed" +
                      std::to_string(o.seed) + ".json");
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  return out;
}

}  // namespace perfbench
