#include "casc/exec/materialize.hpp"

#include <algorithm>
#include <cstring>

#include "casc/analysis/shadow.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/common/check.hpp"
#include "casc/common/rng.hpp"
#include "casc/common/stopwatch.hpp"

namespace casc::exec {

namespace {

/// Materialization cap: a reference costs at most 16 bytes of table (13 when
/// staged), so this bounds the bridge at ~256 MB of tables — far above every
/// spec in the tree, far below anything that could take the host down.
constexpr std::uint64_t kMaxResolvedRefs = 1ull << 24;

/// Empties `v`, releasing its storage, and reserves exactly `n` elements.
template <typename T>
void reset_exact(std::vector<T>& v, std::uint64_t n) {
  v = std::vector<T>();
  v.reserve(n);
}

}  // namespace

MaterializedLoop::MaterializedLoop(const loopir::LoopSpec& spec)
    : MaterializedLoop(spec, StorageBinder{}) {}

MaterializedLoop::MaterializedLoop(const loopir::LoopSpec& spec,
                                   const StorageBinder& bind)
    : spec_(spec), nest_(analysis::sanitized_instantiate(spec, &demoted_)) {
  // The body has at least one slot (finalize() rejects an empty body).
  const std::uint64_t per_iter = nest_.body_slots().size();
  CASC_CHECK(per_iter <= kMaxResolvedRefs &&
                 nest_.num_iterations() <= kMaxResolvedRefs / per_iter,
             "loop too large to materialize for the real runtime");
  const std::size_t n = nest_.num_arrays();
  storage_.resize(n);
  data_.resize(n, nullptr);
  bound_.resize(n, false);
  for (loopir::ArrayId id = 0; id < n; ++id) {
    const std::uint64_t bytes = nest_.array(id).size_bytes();
    std::byte* external =
        bind ? bind(nest_.array(id).name, bytes) : nullptr;
    if (external != nullptr) {
      data_[id] = external;
      bound_[id] = true;
    } else {
      storage_[id].assign(bytes, std::byte{0});
      data_[id] = storage_[id].data();
    }
  }
  reset();
  for (const loopir::BodySlot& slot : nest_.body_slots()) {
    claim_staged_.push_back(!slot.is_write &&
                            (slot.read_only_operand || slot.is_index_load));
  }
  build_tables(slots_for({}));
}

void MaterializedLoop::reset() {
  for (loopir::ArrayId id = 0; id < nest_.num_arrays(); ++id) {
    if (bound_[id]) continue;
    const loopir::ArraySpec& spec = nest_.array(id);
    ArrayBytes& bytes = storage_[id];
    const std::vector<std::uint32_t>& index_values = nest_.index_values(id);
    if (!index_values.empty()) {
      // Index array: real storage holds exactly the values the nest
      // materialized, so the runtime chases the indices the sim modelled.
      const std::size_t width = std::min<std::size_t>(spec.elem_size, 8);
      for (std::size_t i = 0; i < index_values.size(); ++i) {
        const std::uint64_t v = index_values[i];
        std::memcpy(bytes.data() + i * spec.elem_size, &v, width);
      }
      continue;
    }
    // Data array: deterministic pseudo-random contents keyed by array id, so
    // every backend (and every reset) sees identical operand values.
    common::Rng rng(0xC45CADEull ^ (std::uint64_t{id} + 1) * 0x9e3779b97f4a7c15ull);
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::uint64_t word = rng.next();
      const std::size_t take = std::min<std::size_t>(8, bytes.size() - pos);
      std::memcpy(bytes.data() + pos, &word, take);
      pos += take;
    }
  }
}

const Proof& MaterializedLoop::proof(std::uint64_t chunk_bytes,
                                    std::uint64_t workers, double* seconds) {
  if (seconds != nullptr) *seconds = 0.0;
  if (proof_ && proof_chunk_bytes_ == chunk_bytes && proof_workers_ == workers) {
    return *proof_;
  }
  common::Stopwatch watch;
  proof_ = gate_for(*this, chunk_bytes, workers, nullptr);
  restage(proof_->certified);
  proof_chunk_bytes_ = chunk_bytes;
  proof_workers_ = workers;
  if (seconds != nullptr) *seconds = watch.elapsed_seconds();
  return *proof_;
}

std::vector<SlotKind> MaterializedLoop::slots_for(
    const std::vector<std::string>& certified) const {
  std::vector<SlotKind> slots;
  const std::vector<loopir::BodySlot>& body = nest_.body_slots();
  for (std::size_t k = 0; k < body.size(); ++k) {
    const bool wanted =
        std::find(certified.begin(), certified.end(),
                  nest_.array(body[k].array).name) != certified.end();
    slots.push_back(body[k].is_write                ? SlotKind::kWrite
                    : claim_staged_[k] || wanted ? SlotKind::kStagedRead
                                                 : SlotKind::kPlainRead);
  }
  return slots;
}

void MaterializedLoop::restage(const std::vector<std::string>& certified) {
  std::vector<SlotKind> slots = slots_for(certified);
  if (slots != shape_.slots) build_tables(std::move(slots));
}

void MaterializedLoop::build_tables(std::vector<SlotKind> slots) {
  const std::uint64_t iters = nest_.num_iterations();
  shape_ = BodyShape{};
  for (const SlotKind kind : slots) {
    switch (kind) {
      case SlotKind::kStagedRead: ++shape_.staged_reads; break;
      case SlotKind::kPlainRead: ++shape_.plain_reads; break;
      case SlotKind::kWrite: ++shape_.writes; break;
    }
  }
  shape_.slots = std::move(slots);

  // Per-slot resolution, hoisted out of the walk: array, element bytes,
  // and which table the slot's references go to.
  struct SlotInfo {
    std::uint32_t array;
    std::uint32_t elem_size;
    bool staged;
    bool is_write;
  };
  std::vector<SlotInfo> info;
  info.reserve(shape_.slots.size());
  for (std::size_t k = 0; k < shape_.slots.size(); ++k) {
    const loopir::ArrayId array = nest_.body_slots()[k].array;
    info.push_back({array, nest_.array(array).elem_size,
                    shape_.slots[k] == SlotKind::kStagedRead,
                    shape_.slots[k] == SlotKind::kWrite});
  }
  reset_exact(refs_, iters * shape_.unstaged());
  reset_exact(staged_offsets_, iters * shape_.staged_reads);
  reset_exact(staged_arrays_, iters * shape_.staged_reads);
  reset_exact(staged_sizes_, iters * shape_.staged_reads);
  nest_.walk(0, iters, [&](std::uint32_t slot, std::uint64_t elem) {
    const SlotInfo& s = info[slot];
    const std::uint64_t offset = elem * s.elem_size;
    const auto size = static_cast<std::uint8_t>(s.elem_size);
    if (s.staged) {
      staged_offsets_.push_back(offset);
      staged_arrays_.push_back(s.array);
      staged_sizes_.push_back(size);
    } else {
      refs_.push_back({offset, s.array, size, s.is_write});
    }
  });
}

std::uint64_t MaterializedLoop::table_bytes() const noexcept {
  return refs_.capacity() * sizeof(ResolvedRef) +
         staged_offsets_.capacity() * sizeof(std::uint64_t) +
         staged_arrays_.capacity() * sizeof(std::uint32_t) +
         staged_sizes_.capacity() * sizeof(std::uint8_t);
}

std::uint64_t MaterializedLoop::load(const ResolvedRef& ref) const noexcept {
  std::uint64_t value = 0;
  std::memcpy(&value, addr(ref), std::min<std::size_t>(ref.size, 8));
  return value;
}

std::uint64_t MaterializedLoop::load_staged(std::uint64_t p) const noexcept {
  std::uint64_t value = 0;
  std::memcpy(&value, staged_addr(p),
              std::min<std::size_t>(staged_sizes_[p], 8));
  return value;
}

void MaterializedLoop::store(const ResolvedRef& ref, std::uint64_t value) noexcept {
  std::memcpy(data_[ref.array] + ref.offset, &value,
              std::min<std::size_t>(ref.size, 8));
}

std::uint64_t fnv1a(std::uint64_t hash, const std::byte* p,
                    std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) {
    hash = MaterializedLoop::mix(hash, static_cast<std::uint64_t>(p[i]));
  }
  return hash;
}

std::uint64_t MaterializedLoop::rw_checksum() const {
  std::uint64_t hash = kFnvBasis;
  for (loopir::ArrayId id = 0; id < nest_.num_arrays(); ++id) {
    if (nest_.array(id).read_only) continue;
    hash = fnv1a(hash, data_[id], nest_.array(id).size_bytes());
  }
  return hash;
}

Proof gate_for(const MaterializedLoop& loop, std::uint64_t chunk_bytes,
               std::uint64_t workers, std::vector<std::string>* certified) {
  if (certified != nullptr) certified->clear();
  analysis::AnalyzeOptions opt;
  opt.chunk_bytes = chunk_bytes;
  // Static first: a clean static proof (eligible, not even a warning) is the
  // verdict, with no trace and no shadow replay.  Anything else — a refusal,
  // or a proof the static passes hedge with a warning such as index-wrap —
  // takes the full path below, so refusals and certified sets are exactly
  // what the replay-backed analysis decides.  gate_oracle_test holds the
  // shortcut to that full path.
  opt.run_shadow = false;
  const analysis::AnalysisReport quick = analysis::analyze(loop.spec(), opt);
  if (quick.restructure_eligible && quick.diags.warnings() == 0) return Proof{};
  opt.run_shadow = true;
  const analysis::AnalysisReport report = analysis::analyze(loop.spec(), opt);
  if (report.restructure_eligible) return Proof{};

  // The certifier can only overturn staging-claim failures: the claims said
  // read-only, the resolved addresses may prove the staged bytes write-free
  // anyway.  Anything else (layout overlap, footprint escape, parse errors)
  // is outside the certificate's scope and keeps the refusal.
  auto staging_rule = [](const std::string& rule) {
    return rule == "classify-write-ro" || rule == "hazard-cross-chunk" ||
           rule == "shadow-write-ro" || rule == "shadow-hazard-cross-chunk";
  };
  common::Diagnostic reason{common::Severity::kError, "preflight-unproven",
                            "the analysis verifier could not prove the spec "
                            "restructure-eligible",
                            "", "", 0};
  bool have_reason = false;
  bool only_staging = true;
  for (const common::Diagnostic& diag : report.diags.items()) {
    if (diag.severity != common::Severity::kError) continue;
    if (!have_reason) {
      reason = diag;
      have_reason = true;
    }
    if (!staging_rule(diag.rule)) only_staging = false;
  }
  if (only_staging) {
    analysis::CertifyOptions copt;
    copt.chunk_bytes = chunk_bytes;
    const analysis::Certificate cert = analysis::certify(loop.spec(), copt);
    if (cert.certifies_staging(workers)) {
      Proof proof{std::nullopt, cert.certified_operands(workers)};
      if (certified != nullptr) *certified = proof.certified;
      return proof;
    }
  }
  return Proof{std::move(reason), {}};
}

}  // namespace casc::exec
