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

/// One non-staged dynamic reference (a write or a plain read), resolved to
/// real storage.  16 bytes.  Staged reads live only in the SoA staged stream
/// (13 bytes each); nothing is stored per iteration.
struct ResolvedRef {
  std::uint64_t offset = 0;   ///< byte offset within the array's storage
  std::uint32_t array = 0;    ///< loopir::ArrayId
  std::uint8_t size = 0;      ///< element bytes
  bool is_write = false;
};

/// Operand class of one reference slot of the loop body, in body order.
enum class SlotKind : std::uint8_t {
  kStagedRead = 0,  ///< proven-read-only load; the helper may stage it
  kPlainRead = 1,   ///< load that must hit the arrays at execution time
  kWrite = 2,       ///< store (always executed in place)
};

/// Operand-class shape of the loop body.  The nest issues the same slots
/// every iteration and staging is decided per slot, so the shape describes
/// every iteration: the interpreter dispatches ONCE per span to a kernel
/// fused for the sequence (bridge.cpp), and the per-iteration positions in
/// both reference tables are products of the slot counts.  Re-derived
/// whenever a proof changes the staged set.
struct BodyShape {
  std::vector<SlotKind> slots;      ///< the per-iteration sequence
  std::uint32_t staged_reads = 0;   ///< slot counts by kind
  std::uint32_t plain_reads = 0;
  std::uint32_t writes = 0;

  /// Slots resolved through the ResolvedRef table (plain reads and writes).
  [[nodiscard]] std::uint32_t unstaged() const noexcept {
    return plain_reads + writes;
  }
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

/// A spec with real backing arrays and a pre-resolved reference stream,
/// stored once: each staged read as one entry of the SoA staged stream,
/// every other reference as one ResolvedRef, both iteration-major.
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
    return nest_.num_iterations();
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
  //
  // The non-staged references (plain reads and writes) of iteration `it`,
  // in body order.

  [[nodiscard]] const ResolvedRef* refs_begin(std::uint64_t it) const noexcept {
    return refs_.data() + it * shape_.unstaged();
  }
  [[nodiscard]] const ResolvedRef* refs_end(std::uint64_t it) const noexcept {
    return refs_begin(it + 1);
  }

  /// Number of staged references among iterations [0, it) — what sizes and
  /// places per-chunk staging.
  [[nodiscard]] std::uint64_t staged_refs_before(std::uint64_t it) const noexcept {
    return it * shape_.staged_reads;
  }
  [[nodiscard]] std::uint64_t max_staged_per_iter() const noexcept {
    return shape_.staged_reads;
  }

  /// Operand-class shape of the body (see BodyShape).
  [[nodiscard]] const BodyShape& body_shape() const noexcept { return shape_; }

  // ---- staged operand stream (SoA) ----------------------------------------
  //
  // The staged references of the whole loop, in stream order, as parallel
  // arrays.  The restructuring helper walks these: runs of same-array 8-byte
  // entries feed the SIMD gather kernels (common/simd.hpp) directly, offsets
  // as the gather index vector.  Entry p covers the p'th staged reference;
  // iteration `it` owns entries [staged_refs_before(it),
  // staged_refs_before(it + 1)).

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

  /// Bytes the two reference tables hold (allocated capacity): 16 per
  /// non-staged reference plus 13 per staged one, and nothing per iteration.
  [[nodiscard]] std::uint64_t table_bytes() const noexcept;

  // ---- interpreter building blocks ---------------------------------------

  [[nodiscard]] const std::byte* addr(const ResolvedRef& ref) const noexcept {
    return data_[ref.array] + ref.offset;
  }
  /// Address of staged reference `p` (an entry of the staged stream).
  [[nodiscard]] const std::byte* staged_addr(std::uint64_t p) const noexcept {
    return data_[staged_arrays_[p]] + staged_offsets_[p];
  }

  /// Base pointer of one array's backing storage (cache-line or huge-page
  /// aligned per the common allocation policy) — the SIMD gather kernels'
  /// base operand.  Loop-owned or externally bound, transparently.
  [[nodiscard]] const std::byte* array_data(loopir::ArrayId id) const noexcept {
    return data_[id];
  }

  /// Little-endian load of min(size, 8) bytes, zero-extended.
  [[nodiscard]] std::uint64_t load(const ResolvedRef& ref) const noexcept;
  /// The same load for staged reference `p`, straight from the arrays.
  [[nodiscard]] std::uint64_t load_staged(std::uint64_t p) const noexcept;
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

  /// The slot kinds that stage exactly the sanitized claims' staged slots
  /// plus every read slot of the `certified` arrays — operands whose
  /// read-only claim the sanitizer demoted but whose staged bytes the race
  /// certifier proved write-free (or token-ordered on the proof's ring); the
  /// certificate, not the claim, is the safety argument.  Names not present
  /// in the nest are ignored.
  [[nodiscard]] std::vector<SlotKind> slots_for(
      const std::vector<std::string>& certified) const;
  /// Applies slots_for(certified), regenerating the reference tables only
  /// when a slot changed.
  void restage(const std::vector<std::string>& certified);
  /// Sets the body shape to `slots` and regenerates both reference tables
  /// from the nest's walk.
  void build_tables(std::vector<SlotKind> slots);

  loopir::LoopSpec spec_;
  std::vector<std::string> demoted_;
  loopir::LoopNest nest_;
  std::vector<ArrayBytes> storage_;   // loop-owned backing (empty when bound)
  std::vector<std::byte*> data_;      // per-array base, owned or bound
  std::vector<bool> bound_;           // array uses external storage
  std::vector<bool> claim_staged_;    // per slot: the sanitized claims stage it
  BodyShape shape_;
  std::vector<ResolvedRef> refs_;                // non-staged, iteration-major
  std::vector<std::uint64_t> staged_offsets_;    // SoA staged stream
  std::vector<std::uint32_t> staged_arrays_;
  std::vector<std::uint8_t> staged_sizes_;
  std::optional<Proof> proof_;        // cached proof and its key
  std::uint64_t proof_chunk_bytes_ = 0;
  std::uint64_t proof_workers_ = 0;
};

/// Folds `n` bytes at `p` into the FNV-1a hash `hash`, byte by byte (start
/// from kFnvBasis).  The rw_checksum of loops and pipelines.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash, const std::byte* p,
                                  std::uint64_t n) noexcept;
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

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
