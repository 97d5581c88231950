// Materialization: turning a declarative loopir::LoopSpec into something the
// REAL runtime can execute.
//
// The simulator interprets a LoopNest's reference stream against a modeled
// machine; nothing ever touches memory.  MaterializedLoop closes that gap: it
// instantiates the spec (demoting false read-only claims the way the shadow
// checker does, so unsafe specs still materialize), allocates real backing
// storage for every array, fills data arrays deterministically and index
// arrays with the exact values the nest materialized, and pre-resolves the
// nest's dynamic reference stream into (array, byte-offset) pairs.  Both the
// sequential reference interpreter and the cascaded rt bridge (bridge.hpp)
// then execute the SAME resolved stream with the SAME deterministic
// semantics, so their results can be compared bit for bit.
//
// Interpretation semantics (fixed, backend-independent): one u64 accumulator
// `acc` carried across the whole loop; for each reference in body order,
//   read:  v = load(ref);            acc = mix(acc, v)
//   write: w = mix(acc, iteration);  store(ref, w); acc = w
// with mix(a, x) = (a ^ x) * 0x100000001b3.  Loads/stores move
// min(elem_size, 8) bytes little-endian.  Every iteration's writes depend on
// every prior reference, so any reordering or stale staged value changes the
// final digest — bit-identity across backends is a real check, not a
// coincidence.
//
// The restructure proof (Proof) is a property of the materialized loop, not
// of a run: the first restructure run under a (chunk_bytes, workers) key
// computes it and applies its staged set, and every later run with that key
// reuses it.  The spec text is fixed per instance, so the key is complete.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "casc/common/aligned_alloc.hpp"
#include "casc/loopir/loop_nest.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/common/diagnostic.hpp"

namespace casc::exec {

/// One dynamic reference, resolved to real storage.  16 bytes; the resolved
/// stream is the executable form of the loop.
struct ResolvedRef {
  std::uint64_t offset = 0;   ///< byte offset within the array's storage
  std::uint32_t array = 0;    ///< loopir::ArrayId
  std::uint8_t size = 0;      ///< element bytes
  bool is_write = false;
  /// Read of a proven-read-only operand (including index loads): the
  /// restructuring helper may stage its value ahead of execution.
  bool staged = false;
  /// `staged` as the sanitized claims alone set it; a proof's staged set is
  /// this plus the operands its certificate re-enabled.
  bool claim_staged = false;
};

/// Operand class of one reference slot of a uniform loop body, in body order.
enum class SlotKind : std::uint8_t {
  kStagedRead = 0,  ///< proven-read-only load; the helper may stage it
  kPlainRead = 1,   ///< load that must hit the arrays at execution time
  kWrite = 2,       ///< store (always executed in place)
};

/// Operand-class shape of the loop body, computed once from the resolved
/// stream.  When `uniform` every iteration issues the same slot sequence, so
/// the interpreter can dispatch ONCE per span to a kernel fused for that
/// sequence instead of re-branching on every ResolvedRef (bridge.cpp).  The
/// classification is re-derived whenever a proof changes the staging flags.
struct BodyShape {
  bool uniform = false;             ///< every iteration has the same slots
  std::vector<SlotKind> slots;      ///< the per-iteration sequence (if uniform)
  std::uint32_t staged_reads = 0;   ///< slot counts by kind (if uniform)
  std::uint32_t plain_reads = 0;
  std::uint32_t writes = 0;
};

/// The restructure proof of a loop for one ring geometry: the verdict
/// (proven, or the verifier's Diagnostic explaining the refusal) and the
/// operands whose staging a race certificate re-enabled (empty unless the
/// certificate overturned a strict refusal).  Nothing else of the analysis —
/// no report, certificate or trace — is kept.  A restructure run on a
/// refused proof installs no helper at all (bridge.hpp).
struct Proof {
  std::optional<common::Diagnostic> refusal;  ///< nullopt when proven
  std::vector<std::string> certified;

  [[nodiscard]] bool proven() const noexcept { return !refusal.has_value(); }
};

/// Resolves an array name to externally owned backing storage of (at least)
/// `bytes` bytes.  Returning nullptr keeps the array loop-owned; a non-null
/// pointer must stay valid for the loop's lifetime.  MaterializedPipeline
/// uses this to share one allocation per pipeline array across every stage.
using StorageBinder =
    std::function<std::byte*(const std::string& name, std::uint64_t bytes)>;

/// A spec with real backing arrays and a pre-resolved reference stream.
class MaterializedLoop {
 public:
  /// Instantiates via analysis::sanitized_instantiate (false read-only claims
  /// are demoted so unsafe specs still materialize — the demotions are
  /// recorded and also make the restructure gate refuse).  Throws
  /// CheckFailure on unrepairable specs or loops too large to materialize.
  explicit MaterializedLoop(const loopir::LoopSpec& spec);

  /// As above, but arrays the binder resolves use EXTERNAL storage: the loop
  /// neither fills nor resets them (their owner sequences that), while
  /// loop-owned arrays keep the deterministic fill.  The resolved stream and
  /// interpretation semantics are unchanged — only where the bytes live.
  MaterializedLoop(const loopir::LoopSpec& spec, const StorageBinder& bind);

  [[nodiscard]] const loopir::LoopSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const loopir::LoopNest& nest() const noexcept { return nest_; }
  /// Arrays whose read-only claim was demoted at instantiation (non-empty
  /// exactly when the spec's claims were unsound).
  [[nodiscard]] const std::vector<std::string>& demoted_claims() const noexcept {
    return demoted_;
  }

  [[nodiscard]] std::uint64_t num_iterations() const noexcept {
    return iter_offsets_.size() - 1;
  }

  /// Restores every LOOP-OWNED array to its deterministic initial contents.
  /// Each per-loop run_* entry point calls this, so repeated runs are
  /// independent.  Externally bound arrays are untouched: their owner (the
  /// pipeline) decides when the chain's state restarts.
  void reset();

  /// The restructure proof for a ring of `workers` at `chunk_bytes`.
  /// Computed on the first call with that key and cached; a call with a
  /// different key re-proves and replaces the cached proof.  Computing a
  /// proof applies its staged set (see restage()), so the staged stream and
  /// body shape always belong to the cached key.  `seconds`, when non-null,
  /// receives the wall time spent proving in this call: 0 on a cache hit.
  const Proof& proof(std::uint64_t chunk_bytes, std::uint64_t workers,
                     double* seconds = nullptr);

  /// FNV-1a over the bytes of every writable (non-read-only) array — the
  /// loop's observable output state.
  [[nodiscard]] std::uint64_t rw_checksum() const;

  // ---- resolved stream ----------------------------------------------------

  [[nodiscard]] const ResolvedRef* refs_begin(std::uint64_t it) const noexcept {
    return refs_.data() + iter_offsets_[it];
  }
  [[nodiscard]] const ResolvedRef* refs_end(std::uint64_t it) const noexcept {
    return refs_.data() + iter_offsets_[it + 1];
  }

  /// Number of stageable references among iterations [0, it) — prefix sums
  /// that size per-chunk staging exactly.
  [[nodiscard]] std::uint64_t staged_refs_before(std::uint64_t it) const noexcept {
    return staged_prefix_[it];
  }
  [[nodiscard]] std::uint64_t max_staged_per_iter() const noexcept {
    return max_staged_per_iter_;
  }

  /// Operand-class shape of the body (see BodyShape).
  [[nodiscard]] const BodyShape& body_shape() const noexcept { return shape_; }

  // ---- staged operand stream (SoA) ----------------------------------------
  //
  // The staged references of the whole loop, in stream order, as parallel
  // arrays.  The restructuring helper walks these instead of the interleaved
  // ResolvedRef records: runs of same-array 8-byte entries feed the SIMD
  // gather kernels (common/simd.hpp) directly, offsets as the gather index
  // vector.  Entry p covers the p'th staged reference; iteration `it` owns
  // entries [staged_refs_before(it), staged_refs_before(it + 1)).

  [[nodiscard]] const std::uint64_t* staged_offsets() const noexcept {
    return staged_offsets_.data();
  }
  [[nodiscard]] const std::uint32_t* staged_arrays() const noexcept {
    return staged_arrays_.data();
  }
  [[nodiscard]] const std::uint8_t* staged_sizes() const noexcept {
    return staged_sizes_.data();
  }
  [[nodiscard]] std::uint64_t staged_refs_total() const noexcept {
    return staged_offsets_.size();
  }

  // ---- interpreter building blocks ---------------------------------------

  [[nodiscard]] const std::byte* addr(const ResolvedRef& ref) const noexcept {
    return data_[ref.array] + ref.offset;
  }

  /// Base pointer of one array's backing storage (cache-line or huge-page
  /// aligned per the common allocation policy) — the SIMD gather kernels'
  /// base operand.  Loop-owned or externally bound, transparently.
  [[nodiscard]] const std::byte* array_data(loopir::ArrayId id) const noexcept {
    return data_[id];
  }

  /// Little-endian load of min(size, 8) bytes, zero-extended.
  [[nodiscard]] std::uint64_t load(const ResolvedRef& ref) const noexcept;
  /// Little-endian store of the low min(size, 8) bytes.
  void store(const ResolvedRef& ref, std::uint64_t value) noexcept;

  /// The shared mix step (see the header comment).
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t acc,
                                                   std::uint64_t x) noexcept {
    return (acc ^ x) * 0x100000001b3ull;
  }
  /// Initial accumulator value for every run.
  static constexpr std::uint64_t kAccSeed = 0x9e3779b97f4a7c15ull;

 private:
  /// Backing bytes of one array, on the unified aligned-allocation policy:
  /// cache-line aligned, huge-page aligned + advised at >= 2 MB.
  using ArrayBytes = std::vector<std::byte, common::AlignedAllocator<std::byte>>;

  void resolve_stream();
  /// Sets the staged set to exactly the sanitized claims' staged references
  /// plus every read of the `certified` arrays — operands whose read-only
  /// claim the sanitizer demoted but whose staged bytes the race certifier
  /// proved write-free (or token-ordered on the proof's ring); the
  /// certificate, not the claim, is the safety argument.  Rebuilds the
  /// derived stream only when a flag changed.  Names not present in the
  /// nest are ignored.
  void restage(const std::vector<std::string>& certified);
  /// Rebuilds everything derived from the staged flags: the per-iteration
  /// prefix sums, the SoA staged stream, and the body shape.  Called after
  /// resolve_stream() and whenever restage() changes a flag.
  void rebuild_staged_stream();

  loopir::LoopSpec spec_;
  std::vector<std::string> demoted_;
  loopir::LoopNest nest_;
  std::vector<ArrayBytes> storage_;   // loop-owned backing (empty when bound)
  std::vector<std::byte*> data_;      // per-array base, owned or bound
  std::vector<bool> bound_;           // array uses external storage
  std::vector<ResolvedRef> refs_;                // flat, iteration-major
  std::vector<std::uint64_t> iter_offsets_;      // num_iterations + 1
  std::vector<std::uint64_t> staged_prefix_;     // num_iterations + 1
  std::uint64_t max_staged_per_iter_ = 0;
  std::vector<std::uint64_t> staged_offsets_;    // SoA staged stream
  std::vector<std::uint32_t> staged_arrays_;
  std::vector<std::uint8_t> staged_sizes_;
  BodyShape shape_;
  std::optional<Proof> proof_;        // cached proof and its key
  std::uint64_t proof_chunk_bytes_ = 0;
  std::uint64_t proof_workers_ = 0;
};

/// The restructure proof of `loop` for a ring of `workers` at `chunk_bytes`,
/// computed afresh: the computation behind MaterializedLoop::proof(), which
/// it neither reads nor fills.  The analysis verifier judges the spec's
/// ORIGINAL claims (a demoted claim refuses even though the sanitized nest
/// no longer stages the offending operand).  When it refuses and every
/// error is a staging-claim failure, the race certifier gets the final
/// word: a certificate proving the staged bytes write-free (or token-ordered
/// at this worker count) flips the verdict to proven, and the proof's
/// `certified` lists the operands it re-enables (also copied to `certified`
/// when non-null, which is otherwise cleared).  Non-staging errors (layout,
/// footprint, parse) always refuse.
[[nodiscard]] Proof gate_for(const MaterializedLoop& loop,
                             std::uint64_t chunk_bytes, std::uint64_t workers,
                             std::vector<std::string>* certified);

}  // namespace casc::exec
