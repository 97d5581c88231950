// The flagship pipeline bench: wave5's call-12 PARMVR chain — 15 loops over
// one shared array namespace — run as ONE pipelined cascade (one executor,
// one plan-placed staging arena, survival-proven stages replaying their
// predecessor's staged stream) versus 15 INDEPENDENT cascades (fresh executor
// per loop, full re-gathering every stage), at 1/2/4 worker threads.
//
// Every timed call is WARM: one untimed call of each path first proves the
// stages under the thread count's (chunk_bytes, workers) key, so the timed
// calls pay only for the cascade — the cost a repeat chain call has.  Per
// thread count the bench reports pipeline_vs_independent (independent ÷
// pipeline wall), pipeline_vs_reference (sequential reference ÷ pipeline
// wall; above 1 the cascade beats the reference) and chain_over_stage_loops
// (whole-chain wall ÷ Σ stage ExecResult::seconds; the runner's overhead on
// top of the stage loops, target ≤ 1.2).
//
// The deterministic metrics are gates, not measurements: digest_mismatch
// (every path must reproduce the sequential reference bit for bit) and
// reuse_shortfall (every plan-proven pair must actually replay — a refused
// gate or degraded predecessor shows up here) baseline at ZERO, so any
// nonzero value blows the loose rt tolerance and fails the diff.  Wall-time
// ratios are host-dependent and ride the loose tolerance; the sim-backend
// cycle counts are deterministic at a given scale.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/telemetry/bench_reporter.hpp"
#include "casc/wave5/parmvr.hpp"

namespace {

using namespace casc;

struct SimStudy {
  std::uint64_t seq_cycles = 0;
  std::uint64_t chain_cycles = 0;
  std::uint64_t indep_cycles = 0;
};

/// Predicted contrast on the simulated machine: the chain on one persistent
/// machine (cache state carries stage to stage) vs a fresh machine per stage.
SimStudy run_sim_study(const loopir::PipelineSpec& spec,
                       exec::MaterializedPipeline& pipe,
                       std::uint64_t chunk_bytes) {
  const sim::MachineConfig cfg = sim::MachineConfig::pentium_pro();
  cascade::CascadeOptions opt;
  opt.chunk_bytes = chunk_bytes;
  opt.helper = cascade::HelperKind::kRestructure;
  cascade::CascadeSimulator seq_sim(cfg);
  cascade::CascadeSimulator chain_sim(cfg);
  SimStudy study;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    const loopir::LoopNest& nest = pipe.stage(k).nest();
    study.seq_cycles +=
        (k == 0 ? seq_sim.run_sequential(nest, opt.start_state)
                : seq_sim.continue_sequential(nest))
            .total_cycles;
    study.chain_cycles += (k == 0 ? chain_sim.run_cascaded(nest, opt)
                                  : chain_sim.continue_cascaded(nest, opt))
                              .total_cycles;
    cascade::CascadeSimulator fresh(cfg);
    study.indep_cycles += fresh.run_cascaded(nest, opt).total_cycles;
  }
  (void)spec;
  return study;
}

/// The ROADMAP bound on the runner's overhead: whole-chain wall within this
/// factor of the summed stage-loop time.
constexpr double kChainOverLoopsTarget = 1.2;

double stage_loop_seconds(const exec::PipelineResult& r) {
  double s = 0.0;
  for (const exec::PipelineStageResult& stage : r.stages) s += stage.result.seconds;
  return s;
}

}  // namespace

int main() {
  bench::print_scale_banner();
  const unsigned scale = bench::workload_scale();
  const std::uint64_t chunk_bytes = 64 * 1024;

  const loopir::PipelineSpec spec = wave5::make_parmvr_pipeline(scale);
  exec::MaterializedPipeline pipe(spec);
  std::uint64_t proven_pairs = 0;
  for (const analysis::PairPlan& p : pipe.plan().pairs) {
    if (p.full_reuse) ++proven_pairs;
  }

  exec::RtOptions opt;
  opt.helper = exec::HelperMode::kRestructure;
  opt.chunk_bytes = chunk_bytes;

  telemetry::BenchReporter rep("rt_pipeline");
  rep.set_param("backend", std::string("rt"));
  rep.set_param("pipeline", spec.name);
  rep.set_param("stages", static_cast<std::uint64_t>(pipe.num_stages()));
  rep.set_param("chunk_bytes", chunk_bytes);
  rep.set_param("helper", std::string("restructure"));
  rep.set_param("proven_reuse_pairs", proven_pairs);

  bench::run_and_report(rep, [&] {
    const exec::PipelineResult ref = exec::run_pipeline_reference(pipe);
    rep.add_metric("reference_seconds", ref.seconds);

    const SimStudy sim_study = run_sim_study(spec, pipe, chunk_bytes);
    rep.add_metric("sim.seq_cycles", static_cast<double>(sim_study.seq_cycles));
    rep.add_metric("sim.chain_cycles",
                   static_cast<double>(sim_study.chain_cycles));
    rep.add_metric("sim.independent_cycles",
                   static_cast<double>(sim_study.indep_cycles));
    rep.add_metric("sim.chain_gain",
                   sim_study.chain_cycles > 0
                       ? static_cast<double>(sim_study.indep_cycles) /
                             static_cast<double>(sim_study.chain_cycles)
                       : 0.0);

    report::Table table({"Threads", "Pipeline s", "Independent s", "Chain gain",
                         "vs reference", "Chain/loops", "Reused", "Digest"});
    table.set_title("PARMVR call-12 chain, warm calls: pipelined cascade vs " +
                    std::to_string(pipe.num_stages()) +
                    " independent cascades (restructure, 64 KB chunks)");
    std::vector<std::string> missed;
    for (const unsigned threads : {1u, 2u, 4u}) {
      rt::ExecutorConfig cfg;
      cfg.num_threads = threads;
      rt::CascadeExecutor executor(cfg);
      // Untimed warm-up of both paths: proves every stage under this key.
      const exec::PipelineResult warm_chain =
          exec::run_pipeline_cascaded(pipe, executor, opt);
      const exec::PipelineResult warm_indep =
          exec::run_pipeline_independent(pipe, threads, opt);

      const exec::PipelineResult seq = exec::run_pipeline_reference(pipe);
      const exec::PipelineResult chain =
          exec::run_pipeline_cascaded(pipe, executor, opt);
      const exec::PipelineResult indep =
          exec::run_pipeline_independent(pipe, threads, opt);

      std::uint64_t mismatches = 0;
      for (const exec::PipelineResult* r :
           {&warm_chain, &warm_indep, &seq, &chain, &indep}) {
        mismatches += (r->chain_digest != ref.chain_digest ? 1u : 0u) +
                      (r->rw_checksum != ref.rw_checksum ? 1u : 0u);
      }
      const std::uint64_t shortfall =
          proven_pairs - std::min(proven_pairs, chain.stages_reused);
      const double gain = chain.seconds > 0.0 ? indep.seconds / chain.seconds : 0.0;
      const double vs_ref = chain.seconds > 0.0 ? seq.seconds / chain.seconds : 0.0;
      const double loops = stage_loop_seconds(chain);
      const double over_loops = loops > 0.0 ? chain.seconds / loops : 0.0;

      const std::string key = "t" + std::to_string(threads);
      rep.add_metric(key + ".pipeline_seconds", chain.seconds);
      rep.add_metric(key + ".independent_seconds", indep.seconds);
      rep.add_metric(key + ".pipeline_vs_independent", gain);
      rep.add_metric(key + ".pipeline_vs_reference", vs_ref);
      rep.add_metric(key + ".chain_over_stage_loops", over_loops);
      rep.add_metric(key + ".stages_reused",
                     static_cast<double>(chain.stages_reused));
      rep.add_metric(key + ".reuse_shortfall", static_cast<double>(shortfall));
      rep.add_metric(key + ".digest_mismatch", static_cast<double>(mismatches));
      if (over_loops > kChainOverLoopsTarget) missed.push_back(key);

      table.add_row({std::to_string(threads),
                     report::fmt_double(chain.seconds),
                     report::fmt_double(indep.seconds),
                     report::fmt_double(gain),
                     report::fmt_double(vs_ref),
                     report::fmt_double(over_loops),
                     report::fmt_count(chain.stages_reused),
                     mismatches == 0 ? "match" : "MISMATCH"});
    }
    table.print(std::cout);
    std::cout << "whole-chain wall <= " << report::fmt_double(kChainOverLoopsTarget)
              << "x the summed stage loops: ";
    if (missed.empty()) {
      std::cout << "met at every thread count\n";
    } else {
      std::cout << "MISSED at";
      for (const std::string& key : missed) std::cout << ' ' << key;
      std::cout << '\n';
    }
    std::cout << "sim predicted chain gain: "
              << report::fmt_double(
                     sim_study.chain_cycles > 0
                         ? static_cast<double>(sim_study.indep_cycles) /
                               static_cast<double>(sim_study.chain_cycles)
                         : 0.0)
              << "x (" << report::fmt_count(sim_study.indep_cycles) << " vs "
              << report::fmt_count(sim_study.chain_cycles) << " cycles)\n";
  });
  return 0;
}
