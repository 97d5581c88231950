// Runtime preflight gate for restructure helpers.
//
// The real-thread runtime executes opaque lambdas, so it cannot analyze a
// loop's accesses itself; instead the caller presents a PreflightGate built
// from an analysis verdict (casc::analysis::analyze over the loop's spec, or
// casc::analysis::verify_ref_stream over its reference stream).  A gate either
// carries a proof ("every operand the helper stages is read-only") or a
// refusal diagnostic.  The gated CascadeExecutor::run overload consults the
// gate before letting a helper stage values:
//   * proven        -> the helper runs normally;
//   * refused       -> the helper is not allowed to stage: the executor drops
//                      the helper and records the refusal in the run's stats
//                      — execution-phase results are identical either way,
//                      just slower.
// exec's restructure runs (exec::run_stage) are the gate's consumer: their
// verdict is the loop's cached exec::Proof.
// Nothing overrides a refusal: a gate allows staging iff it is proven.
#pragma once

#include <string>
#include <utility>

#include "casc/common/diagnostic.hpp"

namespace casc::rt {

class PreflightGate {
 public:
  /// A proven-safe verdict: restructure staging is allowed.
  [[nodiscard]] static PreflightGate proven() {
    PreflightGate gate;
    gate.proven_ = true;
    return gate;
  }

  /// A refusal carrying the verifier's evidence.
  [[nodiscard]] static PreflightGate refused(common::Diagnostic reason) {
    PreflightGate gate;
    gate.proven_ = false;
    gate.reason_ = std::move(reason);
    return gate;
  }

  /// True when the helper may stage values, i.e. the gate is proven.
  [[nodiscard]] bool allow_restructure() const noexcept { return proven_; }
  [[nodiscard]] const common::Diagnostic& reason() const noexcept { return reason_; }

 private:
  PreflightGate() = default;

  bool proven_ = false;
  common::Diagnostic reason_{common::Severity::kError, "preflight-unproven",
                             "no safety proof presented for this loop"};
};

}  // namespace casc::rt
