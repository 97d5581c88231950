// A workload's program input, set up for timing: the generated spec text
// parsed and materialized, the public cascaded and reference calls that
// every measurement wraps, and the outside-in per-layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/rt/executor.hpp"
#include "casc/telemetry/event_log.hpp"
#include "measure.hpp"

namespace perfbench {

/// Output of one public call, in a form two calls can be compared by: one
/// (digest, rw_checksum) per loop, or one for the whole chain.
struct CallOut {
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> checksums;
  std::vector<casc::exec::ExecResult> stages;
  std::uint64_t stages_reused = 0;

  [[nodiscard]] bool same_output(const CallOut& other) const {
    return digests == other.digests && checksums == other.checksums;
  }
};

/// Operations checked against the sequential reference, and how many
/// disagreed with it (or never completed).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Flip a bit of the next reference digest this tally checks — the
  /// self-test of the correctness gate.
  bool corrupt_next_reference = false;

  /// Counts one comparison of `got` against `reference`.
  void check(const CallOut& got, CallOut reference);
};

/// One parsed + materialized input.  Either a pipeline (one chain, run with
/// run_pipeline_*), or a list of independent loops (each run with
/// run_cascaded / run_reference; one call runs them all in order).
class Target {
 public:
  /// `texts` holds one pipeline text (pipeline = true) or one loop text per
  /// loop.  Parse and materialize are timed into parse_s / materialize_s and
  /// recorded as spans of operation `op`.
  Target(const std::vector<std::string>& texts, bool pipeline,
         casc::exec::RtOptions opt, SpanLog& spans, std::uint64_t op);

  [[nodiscard]] CallOut cascade(casc::rt::CascadeExecutor& executor);
  [[nodiscard]] CallOut reference();

  /// The loops a call executes, in order (pipeline stages or the loop list).
  [[nodiscard]] std::vector<casc::exec::MaterializedLoop*> loops();
  /// True for each loop whose cascaded call runs the restructure gate.
  [[nodiscard]] std::vector<bool> gated() const;
  /// Plan-proven reuse pairs (0 for loop lists).
  [[nodiscard]] std::uint64_t proven_pairs() const;
  [[nodiscard]] bool is_pipeline() const noexcept { return pipe_ != nullptr; }
  /// The chain's spec (pipelines only).
  [[nodiscard]] const casc::loopir::PipelineSpec& pipeline_spec() const {
    return pipe_->spec();
  }
  [[nodiscard]] std::size_t num_loops() const noexcept {
    return pipe_ ? pipe_->num_stages() : loops_.size();
  }
  [[nodiscard]] const casc::exec::RtOptions& options() const noexcept {
    return opt_;
  }

  /// What a call resets and checksums: the chain's shared arrays once, or
  /// every loop's arrays.
  void reset();
  [[nodiscard]] std::uint64_t checksum() const;

  double parse_s = 0.0;
  double materialize_s = 0.0;

 private:
  casc::exec::RtOptions opt_;
  std::unique_ptr<casc::exec::MaterializedPipeline> pipe_;
  std::vector<std::unique_ptr<casc::exec::MaterializedLoop>> loops_;
};

/// Per-layer numbers of one traced measurement of a Target, every time the
/// median over repetitions and summed over the Target's loops.
struct LayerReport {
  // caller-side wall of the public calls (medians)
  double cascade_traced_s = 0.0;
  double cascade_plain_s = 0.0;
  // loopir / analysis
  double parse_s = 0.0;
  double gate_s = 0.0;          ///< gate_for on every loop
  double gate_in_call_s = 0.0;  ///< gate_for on the loops the call gates
  double static_s = 0.0;        ///< analyze(run_shadow = false) on every loop
  // exec
  double materialize_s = 0.0;
  double reset_s = 0.0;
  double checksum_s = 0.0;
  double loop_s = 0.0;      ///< Σ ExecResult::seconds of a cascaded call
  double ref_loop_s = 0.0;  ///< Σ ExecResult::seconds of a reference call
  double staged_chunk_ratio = 0.0;
  double reuse_ratio = 0.0;
  // runtime
  double transfers = 0.0;
  double helper_complete_ratio = 0.0;
  double degraded_runs = 0.0;
  double exec_busy_s = 0.0;
  double helper_busy_s = 0.0;
  double handoff_us_p50 = 0.0;
  double empty_ring_s = 0.0;
  // common (SIMD)
  double gather_s = 0.0;
  double gather_bytes = 0.0;
  // sim
  double sim_predicted_speedup = 0.0;
  double sim_host_s = 0.0;
};

/// The traced measurement: for `seconds` (at least three rounds) it runs a
/// cascaded call on `traced` (whose executor records into `log`), one on
/// `plain` (untraced), and a reference call, in rotating order, checking
/// both cascades against the reference; then it probes each layer from
/// outside.
LayerReport measure_layers(Target& target, casc::rt::CascadeExecutor& traced,
                           const casc::telemetry::EventLog& log,
                           casc::rt::CascadeExecutor& plain, double seconds,
                           SpanLog& spans, std::uint64_t& op, Tally& tally);

/// Adds the per-layer metrics of `r` to `sheet`.  `per_op` divides the
/// loop-summed times down to one operation (the number of loops for a job
/// mix; 1 otherwise); `cascade_s` is the caller-side time the gate and
/// unattributed shares are taken of.
void add_layer_metrics(Sheet& sheet, const LayerReport& r, double per_op,
                       double cascade_s);

/// Self time per layer from the span log, as report lines.
void add_self_times(Sheet& sheet, const SpanLog& spans);

}  // namespace perfbench
