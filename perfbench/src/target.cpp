#include "target.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "casc/analysis/pipeline_plan.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/cascade/engine.hpp"
#include "casc/common/check.hpp"
#include "casc/common/simd.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/sim/machine.hpp"

namespace perfbench {

namespace exec = casc::exec;
namespace rt = casc::rt;
namespace telemetry = casc::telemetry;

void Tally::check(const CallOut& got, CallOut reference) {
  if (corrupt_next_reference && !reference.digests.empty()) {
    reference.digests.front() ^= 1;
    corrupt_next_reference = false;
  }
  ++attempted;
  if (!got.same_output(reference)) ++failed;
}

Target::Target(const std::vector<std::string>& texts, bool pipeline,
               exec::RtOptions opt, SpanLog& spans, std::uint64_t op)
    : opt_(opt) {
  CASC_CHECK(!texts.empty(), "a target needs at least one spec text");
  CASC_CHECK(!pipeline || texts.size() == 1, "a pipeline target has one text");
  if (pipeline) {
    double t = now_s();
    int span = spans.open("PipelineSpec::parse", "loopir", op);
    const casc::loopir::PipelineSpec spec =
        casc::loopir::PipelineSpec::parse(texts.front());
    spans.close(span);
    parse_s = now_s() - t;

    t = now_s();
    span = spans.open("MaterializedPipeline", "exec", op);
    pipe_ = std::make_unique<exec::MaterializedPipeline>(spec);
    spans.close(span);
    materialize_s = now_s() - t;
    return;
  }
  std::vector<casc::loopir::LoopSpec> specs;
  double t = now_s();
  int span = spans.open("LoopSpec::parse", "loopir", op);
  for (const std::string& text : texts) {
    specs.push_back(casc::loopir::LoopSpec::parse(text));
  }
  spans.close(span);
  parse_s = now_s() - t;

  t = now_s();
  span = spans.open("MaterializedLoop", "exec", op);
  for (const casc::loopir::LoopSpec& spec : specs) {
    loops_.push_back(std::make_unique<exec::MaterializedLoop>(spec));
  }
  spans.close(span);
  materialize_s = now_s() - t;
}

CallOut Target::cascade(rt::CascadeExecutor& executor) {
  CallOut out;
  if (pipe_) {
    exec::PipelineResult r = exec::run_pipeline_cascaded(*pipe_, executor, opt_);
    out.digests.push_back(r.chain_digest);
    out.checksums.push_back(r.rw_checksum);
    out.stages_reused = r.stages_reused;
    for (exec::PipelineStageResult& s : r.stages) out.stages.push_back(std::move(s.result));
    return out;
  }
  for (auto& loop : loops_) {
    exec::ExecResult r = exec::run_cascaded(*loop, executor, opt_);
    out.digests.push_back(r.digest);
    out.checksums.push_back(r.rw_checksum);
    out.stages.push_back(std::move(r));
  }
  return out;
}

CallOut Target::reference() {
  CallOut out;
  if (pipe_) {
    exec::PipelineResult r = exec::run_pipeline_reference(*pipe_);
    out.digests.push_back(r.chain_digest);
    out.checksums.push_back(r.rw_checksum);
    for (exec::PipelineStageResult& s : r.stages) out.stages.push_back(std::move(s.result));
    return out;
  }
  for (auto& loop : loops_) {
    exec::ExecResult r = exec::run_reference(*loop);
    out.digests.push_back(r.digest);
    out.checksums.push_back(r.rw_checksum);
    out.stages.push_back(std::move(r));
  }
  return out;
}

std::vector<exec::MaterializedLoop*> Target::loops() {
  std::vector<exec::MaterializedLoop*> out;
  if (pipe_) {
    for (std::size_t k = 0; k < pipe_->num_stages(); ++k) out.push_back(&pipe_->stage(k));
  } else {
    for (auto& loop : loops_) out.push_back(loop.get());
  }
  return out;
}

std::vector<bool> Target::gated() const {
  const bool restructure = opt_.helper == exec::HelperMode::kRestructure;
  std::vector<bool> out(num_loops(), restructure);
  if (pipe_ && restructure) {
    // run_stage_arena gates a stage only when it stages into its own region;
    // a stage replaying its predecessor's stream skips the gate.
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = pipe_->region(k) != nullptr && !pipe_->reuses_previous(k);
    }
  }
  return out;
}

std::uint64_t Target::proven_pairs() const {
  if (!pipe_) return 0;
  std::uint64_t n = 0;
  for (const casc::analysis::PairPlan& p : pipe_->plan().pairs) {
    if (p.full_reuse) ++n;
  }
  return n;
}

void Target::reset() {
  if (pipe_) {
    pipe_->reset();
    return;
  }
  for (auto& loop : loops_) loop->reset();
}

std::uint64_t Target::checksum() const {
  if (pipe_) return pipe_->rw_checksum();
  std::uint64_t acc = 0;
  for (const auto& loop : loops_) acc ^= loop->rw_checksum();
  return acc;
}

namespace {

/// Receives values computed only to be timed, so the calls are not elided.
volatile std::uint64_t g_sink = 0;

/// Busy time per phase and token hand-off latencies of one traced call.
struct RingStats {
  double exec_busy_s = 0.0;
  double helper_busy_s = 0.0;
  std::vector<double> handoff_us;
};

/// Reads the events recorded since `since_ns`: execution and helper phases
/// per worker, and TokenPass(c) -> TokenAcquire(c + 1) hand-offs.  Chunk
/// numbers restart at every run() (one per loop), marked by kRunBegin.
RingStats ring_stats(const telemetry::EventLog& log, std::uint64_t since_ns) {
  RingStats out;
  std::map<unsigned, std::uint64_t> exec_open;
  std::map<unsigned, std::uint64_t> helper_open;
  std::map<std::uint64_t, std::uint64_t> passed;  // chunk -> TokenPass ns
  for (const telemetry::Event& e : log.snapshot()) {
    if (e.ns < since_ns) continue;
    switch (e.kind) {
      case telemetry::EventKind::kRunBegin:
        passed.clear();
        break;
      case telemetry::EventKind::kExecBegin:
        exec_open[e.worker] = e.ns;
        break;
      case telemetry::EventKind::kExecEnd:
        if (auto it = exec_open.find(e.worker); it != exec_open.end()) {
          out.exec_busy_s += static_cast<double>(e.ns - it->second) * 1e-9;
          exec_open.erase(it);
        }
        break;
      case telemetry::EventKind::kHelperBegin:
        helper_open[e.worker] = e.ns;
        break;
      case telemetry::EventKind::kHelperEnd:
        if (auto it = helper_open.find(e.worker); it != helper_open.end()) {
          out.helper_busy_s += static_cast<double>(e.ns - it->second) * 1e-9;
          helper_open.erase(it);
        }
        break;
      case telemetry::EventKind::kTokenPass:
        passed[e.chunk] = e.ns;
        break;
      case telemetry::EventKind::kTokenAcquire:
        if (e.chunk > 0) {
          if (auto it = passed.find(e.chunk - 1); it != passed.end()) {
            out.handoff_us.push_back(static_cast<double>(e.ns - it->second) * 1e-3);
          }
        }
        break;
      default:
        break;
    }
  }
  return out;
}

/// Median of `reps` timed calls of `fn`, each recorded as a span.
template <typename Fn>
double timed_median(int reps, SpanLog& spans, std::uint64_t& op,
                    const char* name, const char* layer, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const int span = spans.open(name, layer, ++op);
    const double t = now_s();
    fn();
    s.push_back(now_s() - t);
    spans.close(span);
  }
  return median(std::move(s));
}

double sum_seconds(const CallOut& c) {
  double s = 0.0;
  for (const exec::ExecResult& r : c.stages) s += r.seconds;
  return s;
}

}  // namespace

LayerReport measure_layers(Target& target, rt::CascadeExecutor& traced,
                           const telemetry::EventLog& log,
                           rt::CascadeExecutor& plain, double seconds,
                           SpanLog& spans, std::uint64_t& op, Tally& tally) {
  LayerReport r;
  r.parse_s = target.parse_s;
  r.materialize_s = target.materialize_s;
  std::vector<double> traced_s, plain_s, loop_s, ref_loop_s;
  std::vector<double> exec_busy, helper_busy, handoffs;
  std::uint64_t degraded = 0;
  CallOut last_plain;

  const double start = now_s();
  for (int round = 0; round < 3 || now_s() - start < seconds; ++round) {
    ++op;
    const int root = spans.open("round", "bench", op);
    CallOut c_traced, c_plain, ref;
    // Rotate the order so no call always runs first (on a cold cache) or
    // last (after the other two warmed it).
    for (int k = 0; k < 3; ++k) {
      const int which = (round + k) % 3;
      if (which == 0) {
        const std::uint64_t since = log.now_ns();
        const int span = spans.open("cascaded call (traced executor)", "exec", op, root);
        const double t = now_s();
        c_traced = target.cascade(traced);
        traced_s.push_back(now_s() - t);
        spans.close(span);
        RingStats rs = ring_stats(log, since);
        exec_busy.push_back(rs.exec_busy_s);
        helper_busy.push_back(rs.helper_busy_s);
        handoffs.insert(handoffs.end(), rs.handoff_us.begin(), rs.handoff_us.end());
      } else if (which == 1) {
        const int span = spans.open("cascaded call", "exec", op, root);
        const double t = now_s();
        c_plain = target.cascade(plain);
        plain_s.push_back(now_s() - t);
        spans.close(span);
        loop_s.push_back(sum_seconds(c_plain));
      } else {
        const int span = spans.open("reference call", "exec", op, root);
        ref = target.reference();
        spans.close(span);
        ref_loop_s.push_back(sum_seconds(ref));
      }
    }
    const int span = spans.open("compare", "bench", op, root);
    tally.check(c_traced, ref);
    tally.check(c_plain, ref);
    spans.close(span);
    spans.close(root);
    for (const CallOut* c : {&c_traced, &c_plain}) {
      for (const exec::ExecResult& s : c->stages) {
        if (s.degraded) {
          ++degraded;
          break;
        }
      }
    }
    last_plain = std::move(c_plain);
  }

  r.cascade_traced_s = median(traced_s);
  r.cascade_plain_s = median(plain_s);
  r.loop_s = median(loop_s);
  r.ref_loop_s = median(ref_loop_s);
  r.exec_busy_s = median(exec_busy);
  r.helper_busy_s = median(helper_busy);
  r.handoff_us_p50 = median(handoffs);
  r.degraded_runs = static_cast<double>(degraded);

  double staged = 0, chunks = 0, completed = 0, jumped = 0, transfers = 0;
  for (const exec::ExecResult& s : last_plain.stages) {
    staged += static_cast<double>(s.staged_chunks);
    chunks += static_cast<double>(s.num_chunks);
    completed += static_cast<double>(s.helpers_completed);
    jumped += static_cast<double>(s.helpers_jumped_out);
    transfers += static_cast<double>(s.transfers);
  }
  r.staged_chunk_ratio = chunks > 0 ? staged / chunks : 0.0;
  r.helper_complete_ratio = completed + jumped > 0 ? completed / (completed + jumped) : 0.0;
  r.transfers = transfers;
  const std::uint64_t pairs = target.proven_pairs();
  r.reuse_ratio = pairs > 0 ? static_cast<double>(last_plain.stages_reused) /
                                  static_cast<double>(pairs)
                            : 0.0;

  // ---- outside-in probes, one layer at a time ------------------------------
  const std::vector<exec::MaterializedLoop*> loops = target.loops();
  const std::vector<bool> gated = target.gated();
  const exec::RtOptions& opt = target.options();

  // The gate exactly as the bridge calls it, once per loop: the proof a
  // cached Proof would compute once.  gate_in_call_s keeps only the loops
  // the cascaded call itself gates.
  std::vector<double> gate_all, gate_call;
  for (int rep = 0; rep < 3; ++rep) {
    double all = 0.0, call = 0.0;
    for (std::size_t k = 0; k < loops.size(); ++k) {
      std::vector<std::string> certified;
      const int span = spans.open("gate_for", "analysis", ++op);
      const double t = now_s();
      (void)exec::gate_for(*loops[k], opt.chunk_bytes, plain.num_threads(), &certified);
      const double dt = now_s() - t;
      spans.close(span);
      all += dt;
      if (gated[k]) call += dt;
    }
    gate_all.push_back(all);
    gate_call.push_back(call);
  }
  r.gate_s = median(gate_all);
  r.gate_in_call_s = median(gate_call);

  r.static_s = timed_median(3, spans, op, "analyze(static)", "analysis", [&] {
    casc::analysis::AnalyzeOptions aopt;
    aopt.chunk_bytes = opt.chunk_bytes;
    aopt.run_shadow = false;
    for (const exec::MaterializedLoop* loop : loops) {
      (void)casc::analysis::analyze(loop->spec(), aopt);
    }
  });

  r.reset_s = timed_median(5, spans, op, "reset", "exec", [&] { target.reset(); });
  std::uint64_t sink = 0;
  r.checksum_s = timed_median(5, spans, op, "rw_checksum", "exec",
                              [&] { sink ^= target.checksum(); });

  // The token ring alone: the workload's chunk geometry with no-op phases.
  r.empty_ring_s = timed_median(5, spans, op, "CascadeExecutor::run(no-op)", "runtime", [&] {
    for (const exec::MaterializedLoop* loop : loops) {
      const std::uint64_t ipc = exec::plan_for(*loop, opt.chunk_bytes).iters_per_chunk();
      auto noop_exec = [](std::uint64_t, std::uint64_t) {};
      auto noop_helper = [](std::uint64_t, std::uint64_t, const rt::TokenWatch&) {
        return true;
      };
      if (opt.helper == exec::HelperMode::kNone) {
        plain.run(loop->num_iterations(), ipc, noop_exec);
      } else {
        plain.run(loop->num_iterations(), ipc, noop_exec, noop_helper);
      }
    }
  });

  // The SIMD gather kernel over each loop's staged operand stream: runs of
  // same-array 8-byte entries, as the restructuring helper feeds it.
  std::vector<std::uint64_t> out;
  double gathered = 0.0;
  r.gather_s = timed_median(5, spans, op, "gather_offsets_u64", "common", [&] {
    gathered = 0.0;
    for (const exec::MaterializedLoop* loop : loops) {
      const std::uint64_t n = loop->staged_refs_total();
      out.resize(n);
      const std::uint64_t* offs = loop->staged_offsets();
      const std::uint32_t* arrs = loop->staged_arrays();
      const std::uint8_t* sizes = loop->staged_sizes();
      std::uint64_t p = 0;
      while (p < n) {
        std::uint64_t q = p + 1;
        while (q < n && arrs[q] == arrs[p] && sizes[q] == sizes[p]) ++q;
        if (sizes[p] == 8) {
          casc::common::simd::gather_offsets_u64(loop->array_data(arrs[p]), offs + p,
                                                 q - p, out.data() + p);
          gathered += 8.0 * static_cast<double>(q - p);
        }
        p = q;
      }
      for (std::uint64_t k = 0; k < n; k += 4096) sink ^= out[k];
    }
  });
  r.gather_bytes = gathered;

  // The simulator's prediction on the same nests (paper Table 1 machine).
  // A pipeline keeps the machine's caches from stage to stage; independent
  // loops each start on a fresh machine.
  {
    const int span = spans.open("CascadeSimulator", "sim", ++op);
    const double t = now_s();
    const casc::sim::MachineConfig cfg =
        casc::sim::MachineConfig::pentium_pro(plain.num_threads());
    casc::cascade::CascadeOptions copt;
    copt.chunk_bytes = opt.chunk_bytes;
    copt.helper = opt.helper == exec::HelperMode::kRestructure
                      ? casc::cascade::HelperKind::kRestructure
                  : opt.helper == exec::HelperMode::kPrefetch
                      ? casc::cascade::HelperKind::kPrefetch
                      : casc::cascade::HelperKind::kNone;
    std::uint64_t seq = 0, cas = 0;
    casc::cascade::CascadeSimulator seq_sim(cfg), cas_sim(cfg);
    for (std::size_t k = 0; k < loops.size(); ++k) {
      const casc::loopir::LoopNest& nest = loops[k]->nest();
      if (k == 0 || !target.is_pipeline()) {
        seq += seq_sim.run_sequential(nest, copt.start_state).total_cycles;
        cas += cas_sim.run_cascaded(nest, copt).total_cycles;
      } else {
        seq += seq_sim.continue_sequential(nest).total_cycles;
        cas += cas_sim.continue_cascaded(nest, copt).total_cycles;
      }
    }
    r.sim_predicted_speedup = cas > 0 ? static_cast<double>(seq) / static_cast<double>(cas) : 0.0;
    r.sim_host_s = now_s() - t;
    spans.close(span);
  }
  g_sink = sink;
  return r;
}

void add_layer_metrics(Sheet& sheet, const LayerReport& r, double per_op,
                       double cascade_s) {
  const double d = per_op > 0 ? per_op : 1.0;
  const Kind L = Kind::kLayer;
  sheet.add("loopir.parse_s", r.parse_s / d, "s", L);
  sheet.add("analysis.gate_s", r.gate_s / d, "s", L,
            "gate_for once per loop; the proof work of one call");
  sheet.add("analysis.gate_in_call_s", r.gate_in_call_s / d, "s", Kind::kInfo,
            "gate_for on the loops the cascaded call gates");
  sheet.add("analysis.static_s", r.static_s / d, "s", L);
  sheet.add("analysis.shadow_share",
            r.gate_s > 0 ? std::max(0.0, 1.0 - r.static_s / r.gate_s) : 0.0, "ratio", L,
            "share of the gate not spent in the static passes");
  sheet.add("analysis.gate_share", cascade_s > 0 ? r.gate_in_call_s / d / cascade_s : 0.0,
            "ratio", L, "gate in the call / cascade_s");
  sheet.add("exec.materialize_s", r.materialize_s / d, "s", L);
  sheet.add("exec.reset_s", r.reset_s / d, "s", L);
  sheet.add("exec.checksum_s", r.checksum_s / d, "s", L);
  sheet.add("exec.loop_s", r.loop_s / d, "s", L, "cascaded ExecResult::seconds, summed");
  sheet.add("exec.ref_loop_s", r.ref_loop_s / d, "s", L);
  sheet.add("exec.staged_chunk_ratio", r.staged_chunk_ratio, "ratio", L);
  sheet.add("exec.reuse_ratio", r.reuse_ratio, "ratio", L,
            "stages_reused / proven pairs; 0 without a pipeline");
  const double attributed = (r.gate_in_call_s + r.reset_s + r.loop_s + r.checksum_s) / d;
  sheet.add("exec.unattributed_share", cascade_s > 0 ? 1.0 - attributed / cascade_s : 0.0,
            "ratio", L, "1 - (gate + reset + loop + checksum) / cascade_s");
  sheet.add("rt.transfers", r.transfers / d, "count", L);
  sheet.add("rt.helper_complete_ratio", r.helper_complete_ratio, "ratio", L);
  sheet.add("rt.degraded_runs", r.degraded_runs, "count", L);
  sheet.add("rt.exec_busy_s", r.exec_busy_s / d, "s", L, "summed over workers");
  sheet.add("rt.helper_busy_s", r.helper_busy_s / d, "s", L, "summed over workers");
  sheet.add("rt.handoff_us_p50", r.handoff_us_p50, "us", L, "TokenPass -> next TokenAcquire");
  sheet.add("rt.empty_ring_s", r.empty_ring_s / d, "s", L, "same geometry, no-op phases");
  sheet.add("simd.gather_s", r.gather_s / d, "s", L,
            casc::common::simd::tier_name(casc::common::simd::active_tier()));
  sheet.add("simd.gather_gbps", r.gather_s > 0 ? r.gather_bytes / r.gather_s * 1e-9 : 0.0,
            "GB/s", L, "bytes computed, not measured");
  sheet.add("sim.predicted_speedup", r.sim_predicted_speedup, "x", L,
            "simulated Pentium Pro (paper Table 1); not validated on this host");
  sheet.add("sim.host_s", r.sim_host_s / d, "s", L);
  sheet.add("trace.overhead_share",
            r.cascade_plain_s > 0 ? r.cascade_traced_s / r.cascade_plain_s - 1.0 : 0.0,
            "ratio", L, "traced / untraced run_cascaded - 1");
}

void add_self_times(Sheet& sheet, const SpanLog& spans) {
  for (const auto& [layer, seconds] : spans.self_seconds()) {
    sheet.add("self." + layer + "_s", seconds, "s", Kind::kInfo,
              "span time minus direct children, whole traced run");
  }
}

}  // namespace perfbench
