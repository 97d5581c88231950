#include "casc/loopir/loop_nest.hpp"

#include <algorithm>
#include <numeric>

#include "casc/common/align.hpp"
#include "casc/common/check.hpp"
#include "casc/common/rng.hpp"

namespace casc::loopir {

namespace {
/// Alignment that guarantees set collisions in every cache we model: larger
/// than any way size (R10000 L2 way = 1 MiB).
constexpr std::uint64_t kConflictAlign = 1ull << 20;
/// Staggered layout lays arrays out consecutively (malloc-style) with pads
/// chosen so that different arrays' equal offsets land in different cache
/// sets at every modeled level.  The 64 KiB term spreads bases across large
/// (L2) ways; the 2112-byte term spreads them across small (L1) ways — 2112
/// is not a multiple of any modeled way size, so cumulative pads stay
/// distinct modulo all of them.
constexpr std::uint64_t kStaggerCoarse = 64 * 1024;
constexpr std::uint64_t kStaggerFine = 2 * 1024 + 64;

/// `value` mod `n`, in [0, n): negative values wrap from the end.
std::uint64_t wrap(std::int64_t value, std::uint64_t n) {
  if (value >= 0) return static_cast<std::uint64_t>(value) % n;
  const std::uint64_t r = (0 - static_cast<std::uint64_t>(value)) % n;
  return r == 0 ? 0 : n - r;
}

/// a·b mod n, exact for every 64-bit operand.  Operands are below n, so an
/// extent under 2^32 takes the 64-bit division.
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t n) {
  if (((a | b) >> 32) == 0) return a * b % n;
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % n);
}
}  // namespace

LoopNest::LoopNest(std::string name) : name_(std::move(name)) {}

void LoopNest::require_finalized() const {
  CASC_CHECK(finalized_, "LoopNest '" + name_ + "' must be finalized first");
}

void LoopNest::require_not_finalized() const {
  CASC_CHECK(!finalized_, "LoopNest '" + name_ + "' is already finalized");
}

ArrayId LoopNest::add_array(const ArraySpec& spec) {
  require_not_finalized();
  CASC_CHECK(spec.num_elems > 0, "array must have at least one element");
  CASC_CHECK(spec.elem_size > 0, "element size must be positive");
  arrays_.push_back(spec);
  return static_cast<ArrayId>(arrays_.size() - 1);
}

ArrayId LoopNest::add_index_array(const std::string& name, std::uint64_t num_elems,
                                  IndexPattern pattern, std::uint64_t seed,
                                  std::uint64_t param) {
  require_not_finalized();
  CASC_CHECK(num_elems > 0, "index array must have at least one element");
  ArraySpec spec;
  spec.name = name;
  spec.elem_size = 4;
  spec.num_elems = num_elems;
  spec.read_only = true;
  const ArrayId id = add_array(spec);

  IndexData data;
  data.array = id;
  data.values.resize(num_elems);
  common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + id);
  switch (pattern) {
    case IndexPattern::kIdentity:
      std::iota(data.values.begin(), data.values.end(), 0u);
      break;
    case IndexPattern::kStrided:
      for (std::uint64_t i = 0; i < num_elems; ++i) {
        data.values[i] = static_cast<std::uint32_t>((i * param) % num_elems);
      }
      break;
    case IndexPattern::kRandomPerm: {
      std::iota(data.values.begin(), data.values.end(), 0u);
      for (std::uint64_t i = num_elems - 1; i > 0; --i) {
        std::swap(data.values[i], data.values[rng.below(i + 1)]);
      }
      break;
    }
    case IndexPattern::kRandom:
      for (auto& v : data.values) {
        v = static_cast<std::uint32_t>(rng.below(num_elems));
      }
      break;
    case IndexPattern::kBlockShuffle: {
      // Blocks of `param` consecutive indices, in shuffled block order:
      // spatial locality within a block, none across blocks.
      const std::uint64_t block = std::max<std::uint64_t>(1, param);
      const std::uint64_t num_blocks = (num_elems + block - 1) / block;
      std::vector<std::uint64_t> order(num_blocks);
      std::iota(order.begin(), order.end(), 0u);
      for (std::uint64_t i = num_blocks - 1; i > 0; --i) {
        std::swap(order[i], order[rng.below(i + 1)]);
      }
      std::uint64_t pos = 0;
      for (std::uint64_t b : order) {
        for (std::uint64_t j = b * block; j < std::min((b + 1) * block, num_elems); ++j) {
          data.values[pos++] = static_cast<std::uint32_t>(j);
        }
      }
      break;
    }
  }
  index_data_.push_back(std::move(data));
  return id;
}

void LoopNest::add_access(const AccessSpec& spec) {
  require_not_finalized();
  CASC_CHECK(spec.array < arrays_.size(), "access names an unknown array");
  if (spec.is_write) {
    CASC_CHECK(!arrays_[spec.array].read_only, "write access to a read-only array");
  }
  if (spec.index_via) {
    CASC_CHECK(*spec.index_via < arrays_.size(), "unknown index array");
    CASC_CHECK(index_data_for(*spec.index_via) != nullptr,
               "index_via must name an array created with add_index_array");
  }
  accesses_.push_back(spec);
}

void LoopNest::set_trip(std::uint64_t n, std::uint64_t step) {
  require_not_finalized();
  CASC_CHECK(n > 0, "trip count must be positive");
  CASC_CHECK(step > 0, "step must be positive");
  n_ = n;
  step_ = step;
}

void LoopNest::set_compute_cycles(std::uint32_t cycles,
                                  std::optional<std::uint32_t> restructured) {
  require_not_finalized();
  CASC_CHECK(cycles >= 1, "compute cost must be at least one cycle");
  if (restructured) {
    CASC_CHECK(*restructured >= 1 && *restructured <= cycles,
               "restructured compute must be in [1, compute]");
  }
  compute_cycles_ = cycles;
  restructured_override_ = restructured;
}

void LoopNest::finalize(LayoutPolicy policy, std::uint64_t region_base) {
  require_not_finalized();
  CASC_CHECK(n_ > 0, "set_trip() must be called before finalize()");
  CASC_CHECK(!accesses_.empty(), "a loop with no accesses is not a workload");

  bases_.resize(arrays_.size());
  std::uint64_t cursor = common::round_up(region_base, kConflictAlign);
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    if (policy == LayoutPolicy::kConflicting) {
      // Every base on a 1 MiB boundary: equal offsets in different arrays
      // map to the same set at every cache level (worst-case conflicts).
      cursor = common::round_up(cursor, kConflictAlign);
      bases_[a] = cursor;
      cursor += arrays_[a].size_bytes();
    } else {
      // Consecutive layout with a per-array pad that de-phases the streams
      // in set space at both L1 and L2 granularity.
      bases_[a] = cursor;
      cursor += arrays_[a].size_bytes() +
                (2 * static_cast<std::uint64_t>(a) + 1) * kStaggerCoarse +
                kStaggerFine;
    }
  }

  if (restructured_override_) {
    restructured_compute_cycles_ = *restructured_override_;
  } else {
    std::uint32_t indirects = 0;
    for (const AccessSpec& acc : accesses_) {
      if (acc.index_via) ++indirects;
    }
    const std::uint32_t saved = 2 * indirects;
    restructured_compute_cycles_ = compute_cycles_ > saved ? compute_cycles_ - saved : 1;
  }

  slots_.clear();
  for (const AccessSpec& acc : accesses_) {
    if (acc.index_via) slots_.push_back({*acc.index_via, false, true, true});
    slots_.push_back({acc.array, acc.is_write,
                      arrays_[acc.array].read_only && !acc.is_write, false});
  }

  // Position at induction value i = it·step is (offset + stride·i) mod
  // extent = (offset mod extent + it·delta) mod extent.
  sites_.clear();
  for (const AccessSpec& acc : accesses_) {
    Cursor c;
    c.extent = arrays_[acc.index_via ? *acc.index_via : acc.array].num_elems;
    if (acc.index_via) c.target_elems = arrays_[acc.array].num_elems;
    c.delta = mulmod(wrap(acc.stride, c.extent), step_ % c.extent, c.extent);
    c.pos = wrap(acc.offset, c.extent);
    sites_.push_back(c);
  }

  finalized_ = true;
}

std::uint64_t LoopNest::num_iterations() const noexcept {
  return (n_ + step_ - 1) / step_;
}

const ArraySpec& LoopNest::array(ArrayId id) const {
  CASC_CHECK(id < arrays_.size(), "array id out of range");
  return arrays_[id];
}

std::uint64_t LoopNest::array_base(ArrayId id) const {
  require_finalized();
  CASC_CHECK(id < arrays_.size(), "array id out of range");
  return bases_[id];
}

const LoopNest::IndexData* LoopNest::index_data_for(ArrayId id) const noexcept {
  for (const IndexData& d : index_data_) {
    if (d.array == id) return &d;
  }
  return nullptr;
}

const std::vector<std::uint32_t>& LoopNest::index_values(ArrayId id) const {
  CASC_CHECK(id < arrays_.size(), "array id out of range");
  static const std::vector<std::uint32_t> kEmpty;
  const IndexData* d = index_data_for(id);
  return d == nullptr ? kEmpty : d->values;
}

std::uint64_t LoopNest::bytes_per_iteration() const noexcept {
  std::uint64_t bytes = 0;
  for (const AccessSpec& acc : accesses_) {
    if (acc.stride == 0) continue;  // loop-invariant: stays cached
    bytes += arrays_[acc.array].elem_size;
    if (acc.index_via) bytes += arrays_[*acc.index_via].elem_size;
  }
  return bytes;
}

std::uint64_t LoopNest::footprint_bytes() const noexcept {
  std::uint64_t total = 0;
  std::vector<bool> counted(arrays_.size(), false);
  for (const AccessSpec& acc : accesses_) {
    auto count_array = [&](ArrayId id) {
      if (counted[id]) return;
      counted[id] = true;
      total += arrays_[id].size_bytes();
    };
    count_array(acc.array);
    if (acc.index_via) count_array(*acc.index_via);
  }
  return total;
}

LoopNest::Cursor LoopNest::cursor_at(std::size_t k, std::uint64_t it) const noexcept {
  Cursor c = sites_[k];
  c.pos = add_mod(c.pos, mulmod(it % c.extent, c.delta, c.extent), c.extent);
  if (const auto via = accesses_[k].index_via) {
    c.index_values = index_data_for(*via)->values.data();
  }
  return c;
}

std::vector<LoopNest::Cursor> LoopNest::cursors_at(std::uint64_t begin,
                                                   std::uint64_t end) const {
  require_finalized();
  CASC_CHECK(begin <= end && end <= num_iterations(),
             "iteration index out of range");
  std::vector<Cursor> cursors;
  cursors.reserve(sites_.size());
  for (std::size_t k = 0; k < sites_.size(); ++k) {
    cursors.push_back(cursor_at(k, begin));
  }
  return cursors;
}

Ref LoopNest::ref_at(std::uint32_t slot, std::uint64_t elem) const noexcept {
  const BodySlot& s = slots_[slot];
  const std::uint32_t size = arrays_[s.array].elem_size;
  Ref ref;
  ref.mem = {bases_[s.array] + elem * size, size,
             s.is_write ? sim::AccessType::kWrite : sim::AccessType::kRead};
  ref.read_only_operand = s.read_only_operand;
  ref.is_index_load = s.is_index_load;
  return ref;
}

void LoopNest::refs_for_iteration(std::uint64_t it, std::vector<Ref>& out) const {
  // The simulator asks once per iteration: position each site directly
  // rather than allocate a walk's cursor vector.
  require_finalized();
  CASC_CHECK(it < num_iterations(), "iteration index out of range");
  auto push = [&](std::uint32_t slot, std::uint64_t elem) {
    out.push_back(ref_at(slot, elem));
  };
  std::uint32_t slot = 0;
  for (std::size_t k = 0; k < sites_.size(); ++k) visit(cursor_at(k, it), slot, push);
}

std::vector<Ref> LoopNest::all_refs() const {
  std::vector<Ref> out;
  const std::uint64_t iters = num_iterations();
  out.reserve(iters * slots_.size());
  walk(0, iters, [&](std::uint32_t slot, std::uint64_t elem) {
    out.push_back(ref_at(slot, elem));
  });
  return out;
}

}  // namespace casc::loopir
