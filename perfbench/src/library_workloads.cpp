// The two in-process library workloads: the paper's PARMVR chain as one
// pipelined cascade, and the spmv row kernel as a single prefetch cascade.
#include <memory>
#include <string>
#include <vector>

#include "casc/analysis/pipeline_plan.hpp"
#include "casc/common/rng.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/wave5/parmvr.hpp"
#include "target.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace exec = casc::exec;
namespace rt = casc::rt;
namespace telemetry = casc::telemetry;

namespace {

struct LibraryInput {
  std::vector<std::string> texts;
  bool pipeline = false;
  exec::RtOptions opt;
  unsigned workers = 4;
};

/// Events per worker ring for a traced run: enough for one whole call of
/// either library workload, so each call's phases can be read back intact.
constexpr std::size_t kRingEvents = std::size_t{1} << 15;

Outcome run_library(const Options& o, const LibraryInput& in) {
  Outcome out;
  out.threads = in.workers;
  std::unique_ptr<telemetry::EventLog> log;
  if (o.trace) log = std::make_unique<telemetry::EventLog>(in.workers, kRingEvents);
  SpanLog spans(o.trace, log.get());
  std::uint64_t op = 0;
  Tally tally;
  tally.corrupt_next_reference = o.corrupt_reference;

  // ---- set-up: parse, materialize, executor, one warm-up call --------------
  std::vector<double> setup_s, parse_s, materialize_s;
  std::unique_ptr<Target> target;
  std::unique_ptr<rt::CascadeExecutor> executor;
  const double setup_start = now_s();
  for (int i = 0; o.more_setups(i, now_s() - setup_start, 0.0); ++i) {
    executor.reset();
    target.reset();
    const int root = spans.open("setup", "bench", ++op);
    const double t = now_s();
    target = std::make_unique<Target>(in.texts, in.pipeline, in.opt, spans, op);
    rt::ExecutorConfig cfg;
    cfg.num_threads = in.workers;
    cfg.event_log = log.get();
    executor = std::make_unique<rt::CascadeExecutor>(cfg);
    const CallOut warm = target->cascade(*executor);
    const CallOut ref = target->reference();
    setup_s.push_back(now_s() - t);
    spans.close(root);
    tally.check(warm, ref);
    parse_s.push_back(target->parse_s);
    materialize_s.push_back(target->materialize_s);
  }
  const double setup = median(setup_s);

  if (o.trace) {
    rt::ExecutorConfig cfg;
    cfg.num_threads = in.workers;
    rt::CascadeExecutor plain(cfg);
    LayerReport r = measure_layers(*target, *executor, *log, plain, o.seconds,
                                   spans, op, tally);
    r.parse_s = median(parse_s);
    r.materialize_s = median(materialize_s);
    add_layer_metrics(out.sheet, r, 1.0, r.cascade_plain_s);
    if (in.pipeline) {
      std::vector<double> plan_s;
      for (int rep = 0; rep < 5; ++rep) {
        const int span = spans.open("plan_pipeline", "analysis", ++op);
        const double t = now_s();
        (void)casc::analysis::plan_pipeline(target->pipeline_spec());
        plan_s.push_back(now_s() - t);
        spans.close(span);
      }
      out.sheet.add("analysis.plan_s", median(plan_s), "s", Kind::kInfo,
                    "plan_pipeline, run inside MaterializedPipeline's constructor");
    }
    out.sheet.add("exec.pool_hit_ratio", 0.0, "ratio", Kind::kLayer,
                  "n/a: no LoopPool on this workload");
    out.sheet.add("svc.batch_mean", 0.0, "count", Kind::kLayer, "n/a: no service");
    out.sheet.add("svc.shard_balance", 0.0, "ratio", Kind::kLayer, "n/a: no service");
    out.sheet.add("setup_s", setup, "s", Kind::kInfo, "traced executor");
    add_self_times(out.sheet, spans);
    spans.write_trace(o.out_dir + "/trace-" + o.workload + "-seed" +
                      std::to_string(o.seed) + ".json");
  } else {
    // ---- interleaved pairs: cascaded call, reference call ------------------
    std::vector<double> cascade_s, reference_s, ratio;
    const double start = now_s();
    for (std::size_t i = 0; cascade_s.size() < o.min_samples() || now_s() - start < o.seconds;
         ++i) {
      CallOut c, r;
      double tc = 0.0, tr = 0.0;
      const auto run_cascade = [&] {
        const double t = now_s();
        c = target->cascade(*executor);
        tc = now_s() - t;
      };
      const auto run_reference = [&] {
        const double t = now_s();
        r = target->reference();
        tr = now_s() - t;
      };
      // Alternate which call goes first, so neither always inherits the
      // cache state the other left behind.
      if (i % 2 == 0) {
        run_cascade();
        run_reference();
      } else {
        run_reference();
        run_cascade();
      }
      tally.check(c, r);
      cascade_s.push_back(tc);
      reference_s.push_back(tr);
      ratio.push_back(tc / tr);
    }
    const Tail t = tail(cascade_s);
    double total = 0.0;
    for (const double s : cascade_s) total += s;
    const Kind E = Kind::kEndToEnd;
    const Kind I = Kind::kInfo;
    out.sheet.add("setup_s", setup, "s", E, "median of " + std::to_string(setup_s.size()) + " set-ups");
    out.sheet.add("cascade_s", median(cascade_s), "s", E,
                  "public cascaded call, n=" + std::to_string(cascade_s.size()));
    out.sheet.add("cascade_tail_s", t.value, "s", I,
                  "p" + std::to_string(t.percentile).substr(0, 5) + " of n=" +
                      std::to_string(t.samples) + " (10 samples beyond it)");
    out.sheet.add("reference_s", median(reference_s), "s", I, "public reference call");
    out.sheet.add("cascade_over_ref", median(ratio), "ratio", E,
                  "median over interleaved pairs; <1 is a win");
    out.sheet.add("jobs_per_s", static_cast<double>(cascade_s.size()) / total, "1/s", I,
                  "cascaded calls per second of cascaded wall");
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  return out;
}

}  // namespace

Outcome run_parmvr_chain(const Options& o) {
  // The paper's subject: wave5 PARMVR call 12, 15 stages over one shared
  // array namespace.  The seed picks the two random permutations (the
  // particle->cell map and the sort order); the chain's shape, footprints
  // and plan-proven reuse pairs do not depend on it.
  casc::loopir::PipelineSpec p = casc::wave5::make_parmvr_pipeline(1);
  casc::common::Rng rng(o.seed);
  for (auto& array : p.arrays) {
    if (array.pattern) array.seed = rng.in_range(1, 1u << 30);
  }
  LibraryInput in;
  in.texts = {p.to_text()};
  in.pipeline = true;
  in.opt.helper = exec::HelperMode::kRestructure;
  in.opt.chunk_bytes = 64 * 1024;
  return run_library(o, in);
}

Outcome run_spmv_prefetch(const Options& o) {
  // examples/specs/spmv.casc, with the random column-index seed taken from
  // the workload seed.  Prefetch never runs the restructure gate, so this
  // workload isolates the token ring, the single-loop runner and the
  // interpreter.
  casc::common::Rng rng(o.seed);
  const std::string text =
      "loop spmv_row\n"
      "trip 262144\n"
      "compute 18 12\n"
      "layout conflicting\n"
      "array y 8 262144 rw\n"
      "array val 8 262144 ro\n"
      "array x 8 65536 ro\n"
      "index col 262144 random " +
      std::to_string(rng.in_range(1, 1u << 30)) +
      "\n"
      "access val read\n"
      "access x read via col\n"
      "access y read\n"
      "access y write\n";
  LibraryInput in;
  in.texts = {text};
  in.opt.helper = exec::HelperMode::kPrefetch;
  in.opt.chunk_bytes = 64 * 1024;
  return run_library(o, in);
}

}  // namespace perfbench
