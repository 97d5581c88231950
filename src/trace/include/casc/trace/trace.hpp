// Memory-reference traces: capture the classified dynamic reference stream
// of a loop nest, persist it in a compact binary format, and replay it
// through the cascade engine via the Workload interface.  This decouples the
// evaluation pipeline from the loop IR — a user can study cascaded execution
// on reference streams captured from real applications (or other simulators)
// without expressing them as LoopNests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "casc/core/workload.hpp"
#include "casc/loopir/loop_nest.hpp"

namespace casc::trace {

/// Workload-level metadata carried alongside the reference stream.
struct TraceMeta {
  std::string name;
  std::uint32_t compute_cycles = 1;
  std::uint32_t restructured_compute_cycles = 1;
  std::uint64_t bytes_per_iteration = 1;
  std::uint64_t buffer_bytes_per_iteration = 0;
};

/// An in-memory trace: per-iteration groups of classified references.
class Trace {
 public:
  /// Records every iteration of a finalized loop nest (metadata copied
  /// from it) straight from its closed-form walk.
  static Trace capture(const loopir::LoopNest& nest);

  /// Serializes to the binary format (magic "CASCTRC1", little-endian).
  void write(std::ostream& os) const;
  /// Deserializes; throws CheckFailure on malformed input.
  static Trace read(std::istream& is);

  void save(const std::string& path) const;
  static Trace load(const std::string& path);

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] std::uint64_t num_iterations() const noexcept {
    return iter_offsets_.empty() ? 0 : iter_offsets_.size() - 1;
  }
  [[nodiscard]] std::uint64_t num_refs() const noexcept { return refs_.size(); }

  /// References of iteration `it` (appended to `out`).
  void refs_for_iteration(std::uint64_t it, std::vector<loopir::Ref>& out) const;

  /// Coalesced data regions the trace touches.
  [[nodiscard]] const std::vector<core::AddressRange>& ranges() const noexcept {
    return ranges_;
  }

 private:
  void compute_ranges();

  TraceMeta meta_;
  std::vector<loopir::Ref> refs_;
  std::vector<std::uint64_t> iter_offsets_;  // size = num_iterations + 1
  std::vector<core::AddressRange> ranges_;
};

/// Workload view over a Trace (non-owning).
class TraceWorkload final : public core::Workload {
 public:
  explicit TraceWorkload(const Trace& trace) : trace_(&trace) {}

  [[nodiscard]] std::uint64_t num_iterations() const override {
    return trace_->num_iterations();
  }
  [[nodiscard]] std::uint32_t compute_cycles() const override {
    return trace_->meta().compute_cycles;
  }
  [[nodiscard]] std::uint32_t restructured_compute_cycles() const override {
    return trace_->meta().restructured_compute_cycles;
  }
  [[nodiscard]] std::uint64_t bytes_per_iteration() const override {
    return trace_->meta().bytes_per_iteration;
  }
  [[nodiscard]] std::uint64_t buffer_bytes_per_iteration() const override {
    return trace_->meta().buffer_bytes_per_iteration;
  }
  void refs_for_iteration(std::uint64_t it,
                          std::vector<loopir::Ref>& out) const override {
    trace_->refs_for_iteration(it, out);
  }
  [[nodiscard]] std::vector<core::AddressRange> data_ranges() const override {
    return trace_->ranges();
  }

 private:
  const Trace* trace_;
};

}  // namespace casc::trace
