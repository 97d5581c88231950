#include "casc/trace/trace.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "casc/common/check.hpp"

namespace casc::trace {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'S', 'C', 'T', 'R', 'C', '1'};
/// Guard against absurd (likely corrupted) counts before allocating.
constexpr std::uint64_t kMaxReasonable = 1ull << 40;

/// Bytes of one packed on-disk reference record (addr + size + flags).
constexpr std::uint64_t kRefRecordBytes = 8 + 4 + 1;

/// Bytes left in the stream after the current position, or kMaxReasonable
/// when the stream is not seekable.  Used to reject corrupt headers whose
/// counts would otherwise drive multi-gigabyte allocations before the first
/// truncated read is ever noticed.
std::uint64_t remaining_bytes(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return kMaxReasonable;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return kMaxReasonable;
  return static_cast<std::uint64_t>(end - here);
}

template <typename T>
void put(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  CASC_CHECK(is.good(), "trace stream truncated");
  return value;
}

/// Packed on-disk reference record.
struct RefRecord {
  std::uint64_t addr = 0;
  std::uint32_t size = 0;
  std::uint8_t flags = 0;  // bit0 write, bit1 read-only operand, bit2 index load
};

RefRecord pack(const loopir::Ref& ref) {
  RefRecord rec;
  rec.addr = ref.mem.addr;
  rec.size = ref.mem.size;
  rec.flags = static_cast<std::uint8_t>(
      (ref.mem.type == sim::AccessType::kWrite ? 1u : 0u) |
      (ref.read_only_operand ? 2u : 0u) | (ref.is_index_load ? 4u : 0u));
  return rec;
}

loopir::Ref unpack(const RefRecord& rec) {
  loopir::Ref ref;
  ref.mem.addr = rec.addr;
  ref.mem.size = rec.size;
  ref.mem.type = (rec.flags & 1u) ? sim::AccessType::kWrite : sim::AccessType::kRead;
  ref.read_only_operand = (rec.flags & 2u) != 0;
  ref.is_index_load = (rec.flags & 4u) != 0;
  CASC_CHECK(ref.mem.size > 0, "trace contains a zero-size reference");
  return ref;
}

}  // namespace

Trace Trace::capture(const loopir::LoopNest& nest) {
  // A nest's body is the same every iteration, so all_refs() allocates the
  // stream at its exact size and the iteration index is arithmetic.
  const core::LoopWorkload workload(nest);
  Trace trace;
  trace.meta_ = {nest.name(), workload.compute_cycles(),
                 workload.restructured_compute_cycles(),
                 workload.bytes_per_iteration(),
                 workload.buffer_bytes_per_iteration()};
  trace.refs_ = nest.all_refs();
  const std::uint64_t iters = nest.num_iterations();
  const std::uint64_t per_iter = nest.body_slots().size();
  trace.iter_offsets_.reserve(iters + 1);
  for (std::uint64_t it = 0; it <= iters; ++it) {
    trace.iter_offsets_.push_back(it * per_iter);
  }
  trace.compute_ranges();
  return trace;
}

void Trace::compute_ranges() {
  // Coalesce the touched 4 KiB pages into contiguous ranges — compact enough
  // to store, precise enough for start-state warming.  Consecutive
  // references mostly revisit a few recent pages; a small direct-mapped
  // filter drops those repeats before the sort, which (with unique) keeps
  // the result exact.
  constexpr std::uint64_t kPage = 4096;
  std::array<std::uint64_t, 16> recent;
  recent.fill(~std::uint64_t{0});
  std::vector<std::uint64_t> pages;
  pages.reserve(refs_.size() / 8 + 1);
  for (const loopir::Ref& ref : refs_) {
    const std::uint64_t page = ref.mem.addr / kPage;
    std::uint64_t& seen = recent[page % recent.size()];
    if (seen == page) continue;
    seen = page;
    pages.push_back(page);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  ranges_.clear();
  for (std::size_t i = 0; i < pages.size();) {
    std::size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) ++j;
    ranges_.push_back({pages[i] * kPage, (j - i) * kPage});
    i = j;
  }
}

void Trace::write(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(meta_.name.size()));
  os.write(meta_.name.data(), static_cast<std::streamsize>(meta_.name.size()));
  put(os, meta_.compute_cycles);
  put(os, meta_.restructured_compute_cycles);
  put(os, meta_.bytes_per_iteration);
  put(os, meta_.buffer_bytes_per_iteration);
  put<std::uint64_t>(os, num_iterations());
  put<std::uint64_t>(os, refs_.size());
  for (std::uint64_t offset : iter_offsets_) put(os, offset);
  for (const loopir::Ref& ref : refs_) {
    const RefRecord rec = pack(ref);
    put(os, rec.addr);
    put(os, rec.size);
    put(os, rec.flags);
  }
  put<std::uint32_t>(os, static_cast<std::uint32_t>(ranges_.size()));
  for (const core::AddressRange& range : ranges_) {
    put(os, range.base);
    put(os, range.bytes);
  }
  CASC_CHECK(os.good(), "failed to write trace stream");
}

Trace Trace::read(std::istream& is) {
  char magic[8] = {};
  is.read(magic, sizeof(magic));
  CASC_CHECK(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
             "not a cascaded-execution trace (bad magic)");
  Trace trace;
  const auto name_len = get<std::uint32_t>(is);
  CASC_CHECK(name_len < 4096, "trace name implausibly long");
  trace.meta_.name.resize(name_len);
  is.read(trace.meta_.name.data(), name_len);
  CASC_CHECK(is.good(), "trace stream truncated in name");
  trace.meta_.compute_cycles = get<std::uint32_t>(is);
  trace.meta_.restructured_compute_cycles = get<std::uint32_t>(is);
  trace.meta_.bytes_per_iteration = get<std::uint64_t>(is);
  trace.meta_.buffer_bytes_per_iteration = get<std::uint64_t>(is);
  const auto iters = get<std::uint64_t>(is);
  const auto refs = get<std::uint64_t>(is);
  CASC_CHECK(iters < kMaxReasonable && refs < kMaxReasonable,
             "trace header counts are implausible (corrupt file?)");
  const std::uint64_t remaining = remaining_bytes(is);
  CASC_CHECK(iters <= remaining / sizeof(std::uint64_t) &&
                 refs <= remaining / kRefRecordBytes,
             "trace header counts exceed the stream size (corrupt file?)");
  trace.iter_offsets_.resize(iters + 1);
  for (auto& offset : trace.iter_offsets_) offset = get<std::uint64_t>(is);
  CASC_CHECK(trace.iter_offsets_.front() == 0 && trace.iter_offsets_.back() == refs,
             "trace iteration index is inconsistent");
  for (std::size_t i = 1; i < trace.iter_offsets_.size(); ++i) {
    CASC_CHECK(trace.iter_offsets_[i] >= trace.iter_offsets_[i - 1],
               "trace iteration offsets must be monotone");
  }
  trace.refs_.reserve(refs);
  for (std::uint64_t r = 0; r < refs; ++r) {
    RefRecord rec;
    rec.addr = get<std::uint64_t>(is);
    rec.size = get<std::uint32_t>(is);
    rec.flags = get<std::uint8_t>(is);
    trace.refs_.push_back(unpack(rec));
  }
  const auto num_ranges = get<std::uint32_t>(is);
  trace.ranges_.reserve(num_ranges);
  for (std::uint32_t r = 0; r < num_ranges; ++r) {
    core::AddressRange range;
    range.base = get<std::uint64_t>(is);
    range.bytes = get<std::uint64_t>(is);
    trace.ranges_.push_back(range);
  }
  return trace;
}

void Trace::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  CASC_CHECK(os.good(), "cannot open '" + path + "' for writing");
  write(os);
}

Trace Trace::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CASC_CHECK(is.good(), "cannot open trace '" + path + "'");
  return read(is);
}

void Trace::refs_for_iteration(std::uint64_t it, std::vector<loopir::Ref>& out) const {
  CASC_CHECK(it < num_iterations(), "trace iteration out of range");
  const std::uint64_t begin = iter_offsets_[it];
  const std::uint64_t end = iter_offsets_[it + 1];
  out.insert(out.end(), refs_.begin() + static_cast<std::ptrdiff_t>(begin),
             refs_.begin() + static_cast<std::ptrdiff_t>(end));
}

}  // namespace casc::trace
