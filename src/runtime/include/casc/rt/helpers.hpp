// Building blocks for helper phases on real hardware: forced loads (reliable
// cache warming), prefetch hints, span prefetchers with jump-out polling, and
// per-worker sequential-buffer management for restructuring helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "casc/common/align.hpp"
#include "casc/common/check.hpp"
#include "casc/rt/executor.hpp"
#include "casc/rt/seq_buffer.hpp"
#include "casc/rt/token.hpp"

namespace casc::rt {

/// Forces an actual load of the line containing `p`.  Unlike a prefetch hint
/// this cannot be dropped by the hardware, which matters when the helper's
/// whole purpose is the cache side effect.
inline void force_load(const void* p) noexcept {
  (void)*static_cast<const volatile unsigned char*>(p);
}

/// Non-binding prefetch hint (may be dropped under load).
inline void prefetch_hint(const void* p) noexcept {
#if defined(__GNUC__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Loads one byte of every cache line covering elements [begin, end) of
/// `data`, polling `watch` every `poll_every` lines so the helper can jump
/// out when its execution phase is signalled.  Returns true iff the whole
/// span was touched.
template <typename T>
bool prefetch_span(const T* data, std::uint64_t begin, std::uint64_t end,
                   const TokenWatch& watch, std::uint64_t poll_every = 64) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data + begin);
  const std::uint64_t total = (end - begin) * sizeof(T);
  std::uint64_t line = 0;
  const std::uint64_t lines = (total + common::kCacheLineSize - 1) / common::kCacheLineSize;
  for (; line < lines; ++line) {
    if (poll_every != 0 && line % poll_every == 0 && watch.signalled()) return false;
    force_load(bytes + line * common::kCacheLineSize);
  }
  return true;
}

/// One SequentialBuffer per worker, addressed by chunk.  Chunk c is always
/// handled (helper and execution phase alike) by worker c mod P, so
/// `for_chunk` hands both phases the same buffer without any
/// synchronization.  Reuse is safe by construction: chunk c + P's helper runs
/// on worker w only after w has drained chunk c.
class PerWorkerBuffers {
 public:
  PerWorkerBuffers(unsigned num_workers, std::size_t capacity_bytes,
                   std::uint64_t iters_per_chunk)
      : iters_per_chunk_(iters_per_chunk) {
    CASC_CHECK(num_workers > 0, "need at least one worker");
    CASC_CHECK(iters_per_chunk > 0, "iters_per_chunk must be positive");
    buffers_.reserve(num_workers);
    for (unsigned w = 0; w < num_workers; ++w) {
      buffers_.push_back(std::make_unique<SequentialBuffer>(capacity_bytes));
    }
  }

  /// Buffer owned by the worker responsible for the chunk starting at
  /// iteration `chunk_begin`.
  [[nodiscard]] SequentialBuffer& for_chunk(std::uint64_t chunk_begin) {
    return for_chunk_index(chunk_begin / iters_per_chunk_);
  }

  /// Same, addressed by chunk index directly (what RestructuredLoop uses).
  [[nodiscard]] SequentialBuffer& for_chunk_index(std::uint64_t chunk) {
    return *buffers_[chunk % buffers_.size()];
  }

 private:
  std::uint64_t iters_per_chunk_;
  std::vector<std::unique_ptr<SequentialBuffer>> buffers_;
};

/// Convenience: cascades a per-iteration body over [0, n).
template <typename Body>
void cascaded_for(CascadeExecutor& executor, std::uint64_t n,
                  std::uint64_t iters_per_chunk, Body&& body, HelperRef helper = nullptr) {
  executor.run(
      n, iters_per_chunk,
      [&body](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) body(i);
      },
      helper);
}

}  // namespace casc::rt
