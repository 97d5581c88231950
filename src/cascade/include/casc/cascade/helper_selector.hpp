// Automatic helper-strategy selection.  The paper evaluates prefetching and
// restructuring separately and finds which wins depends on the machine (L2
// associativity, compiler prefetching) and on the loop (read-only share,
// conflict behaviour).  A runtime system would pick per loop; this component
// does exactly that by trial simulation, optionally combined with the chunk
// tuner.
#pragma once

#include <array>
#include <cstdint>

#include "casc/cascade/engine.hpp"
#include "casc/cascade/options.hpp"
#include "casc/loopir/loop_nest.hpp"

namespace casc::cascade {

/// Outcome of a helper-selection trial.
struct HelperChoice {
  HelperKind helper = HelperKind::kNone;
  std::uint64_t chunk_bytes = 0;
  double speedup = 0.0;  ///< of the chosen configuration
  /// Speedups measured for each strategy (indexed by HelperKind) at the
  /// chosen chunk size; useful for reporting the margin of the decision.
  std::array<double, 3> speedup_by_kind{};
  /// True when even the best cascaded configuration loses to sequential
  /// execution — the caller should run the loop plainly.
  [[nodiscard]] bool prefer_sequential() const noexcept { return speedup < 1.0; }
  /// True when the preflight verifier refused the restructure trial (a
  /// staged operand is written); its slot in speedup_by_kind then reports the
  /// prefetch fallback the engine actually ran, and restructure is never the
  /// selected helper.
  bool restructure_refused = false;

  /// One step down the demotion ladder from this choice (see demote_helper):
  /// the speedup is re-read from speedup_by_kind, so a demoted choice still
  /// reports the margin the trial measured for the weaker strategy.
  [[nodiscard]] HelperChoice demoted() const noexcept;
};

/// The fail-soft demotion ladder the runtime walks under a soft-budget miss
/// or helper quarantine: restructure -> prefetch -> none (none is terminal).
/// Each step strictly reduces helper-side work and shared-state footprint.
[[nodiscard]] HelperKind demote_helper(HelperKind kind) noexcept;

/// Tries every helper strategy at `opt.chunk_bytes` and returns the best.
/// With preflight verification on (the default), an unproven restructure
/// helper is demoted by the engine and never selected.
HelperChoice select_helper(CascadeSimulator& sim, const core::Workload& workload,
                           CascadeOptions opt);
HelperChoice select_helper(CascadeSimulator& sim, const loopir::LoopNest& nest,
                           CascadeOptions opt);

/// Tries every helper strategy across a geometric chunk sweep
/// [min_bytes, max_bytes] and returns the best (strategy, chunk) pair.
HelperChoice select_helper_and_chunk(CascadeSimulator& sim, const core::Workload& workload,
                                     CascadeOptions opt, std::uint64_t min_bytes,
                                     std::uint64_t max_bytes);
HelperChoice select_helper_and_chunk(CascadeSimulator& sim,
                                     const loopir::LoopNest& nest, CascadeOptions opt,
                                     std::uint64_t min_bytes, std::uint64_t max_bytes);

}  // namespace casc::cascade
