// The real sequential buffer (paper §2.1): a per-thread, cache-line-aligned
// byte arena the restructuring helper fills in dynamic reference order and
// the execution phase drains strictly sequentially.  Reuse across chunks
// keeps the same lines hot in the owning processor's caches.
//
// Three access tiers, from safest to fastest:
//   * push()/pop()           — one value, bounds checked by CASC_DCHECK (on in
//                              Debug/sanitizer builds, compiled out in Release).
//   * push_span()/pop_span() — one memcpy per span, hard CASC_CHECK per call
//                              (per-chunk granularity: always on).
//   * write_cursor()/read_cursor() — streaming cursors for the helper/exec hot
//                              loops: capacity is hard-checked ONCE when the
//                              cursor is acquired, per-element advances are
//                              CASC_DCHECK only, and a write cursor publishes
//                              nothing until commit() — a jump-out that
//                              abandons the cursor leaves the buffer unchanged.
//
// Storage sits on the unified casc::common aligned-allocation policy
// (common/aligned_alloc.hpp): buffers of >= 2 MB are huge-page aligned and
// madvise(MADV_HUGEPAGE)d — with the return value checked and counted — so a
// large operand staging area costs one TLB entry instead of hundreds, and
// smaller buffers are cache-line aligned so the SIMD gather/pack kernels
// (common/simd.hpp) always write to known alignments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "casc/common/align.hpp"
#include "casc/common/aligned_alloc.hpp"
#include "casc/common/check.hpp"
#include "casc/common/simd.hpp"

namespace casc::rt {

/// FIFO arena of trivially-copyable values.  Writes (helper phase) and reads
/// (execution phase) each keep their own cursor; reset() rewinds both at the
/// start of a chunk.  Not thread-safe — by construction it is only ever
/// touched by its owning thread (helper and execution phases of the same
/// processor never overlap).
class SequentialBuffer {
 public:
  /// Capacity at or above which the backing store is huge-page aligned and
  /// advised (Linux THP; a no-op elsewhere).  Alias of the hoisted
  /// common::kHugePageSize — the policy now lives in common/align.hpp.
  static constexpr std::size_t kHugePageSize = common::kHugePageSize;

  explicit SequentialBuffer(std::size_t capacity_bytes)
      // AlignedStorage validates the capacity, picks the alignment tier,
      // rounds the capacity up to it, and madvises huge-page tiers (with the
      // madvise result checked and counted; see common/aligned_alloc.hpp).
      : storage_(capacity_bytes) {}

  SequentialBuffer(const SequentialBuffer&) = delete;
  SequentialBuffer& operator=(const SequentialBuffer&) = delete;

  /// Rewinds both cursors; contents become dead.
  void reset() noexcept { write_pos_ = read_pos_ = 0; }

  /// Appends one value (helper phase).  Bounds are CASC_DCHECK-only: this is
  /// the per-iteration hot path.  Callers that cannot prove capacity should
  /// size the buffer for one chunk (as RestructuredLoop does) or use
  /// push_span()/write_cursor(), which hard-check.
  template <typename T>
  void push(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    CASC_DCHECK(write_pos_ + sizeof(T) <= storage_.size(), "sequential buffer overflow");
    std::memcpy(storage_.data() + write_pos_, &value, sizeof(T));
    write_pos_ += sizeof(T);
  }

  /// Pops the next value in FIFO order (execution phase).  CASC_DCHECK-only,
  /// like push().
  template <typename T>
  T pop() {
    static_assert(std::is_trivially_copyable_v<T>);
    CASC_DCHECK(read_pos_ + sizeof(T) <= write_pos_, "sequential buffer underflow");
    T value;
    std::memcpy(&value, storage_.data() + read_pos_, sizeof(T));
    read_pos_ += sizeof(T);
    return value;
  }

  /// Stages `count` contiguous values with one bounds check and one memcpy.
  template <typename T>
  void push_span(const T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    CASC_CHECK(write_pos_ + bytes <= storage_.size(), "sequential buffer overflow");
    std::memcpy(storage_.data() + write_pos_, values, bytes);
    write_pos_ += bytes;
  }

  /// Drains `count` values into `out` with one bounds check and one memcpy.
  template <typename T>
  void pop_span(T* out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    CASC_CHECK(read_pos_ + bytes <= write_pos_, "sequential buffer underflow");
    std::memcpy(out, storage_.data() + read_pos_, bytes);
    read_pos_ += bytes;
  }

  /// Streaming writer over reserved space for up to `max_count` values of T.
  /// Nothing is visible to pop()/read_cursor() until commit(); destroying an
  /// uncommitted cursor discards the staged values (the jump-out path).
  template <typename T>
  class WriteCursor {
   public:
    WriteCursor(const WriteCursor&) = delete;
    WriteCursor& operator=(const WriteCursor&) = delete;
    WriteCursor(WriteCursor&& other) noexcept
        : buf_(other.buf_), base_(other.base_), count_(other.count_),
          max_count_(other.max_count_) {
      other.buf_ = nullptr;
    }
    WriteCursor& operator=(WriteCursor&&) = delete;
    ~WriteCursor() = default;  // uncommitted staging is simply dropped

    /// Appends one value; bounds are CASC_DCHECK-only (the acquisition
    /// hard-checked capacity for max_count already).
    void push(const T& value) noexcept {
      CASC_DCHECK(count_ < max_count_, "write cursor overflow");
      std::memcpy(base_ + count_ * sizeof(T), &value, sizeof(T));
      ++count_;
    }

    /// Appends `count` contiguous values with one DCHECK and one pack copy
    /// (the vectorized stream_copy kernel).
    void push_n(const T* values, std::size_t count) noexcept {
      CASC_DCHECK(count_ + count <= max_count_, "write cursor overflow");
      common::simd::stream_copy(base_ + count_ * sizeof(T), values,
                                count * sizeof(T));
      count_ += count;
    }

    /// Raw destination for the next `count` values — the SIMD gather kernels
    /// write through this directly, then the caller advance()s.  Nothing is
    /// published until commit(), exactly like push().
    [[nodiscard]] T* reserve_span(std::size_t count) noexcept {
      CASC_DCHECK(count_ + count <= max_count_, "write cursor overflow");
      (void)count;
      return reinterpret_cast<T*>(base_ + count_ * sizeof(T));
    }

    /// Declares `count` values written through the last reserve_span().
    void advance(std::size_t count) noexcept {
      CASC_DCHECK(count_ + count <= max_count_, "write cursor overflow");
      count_ += count;
    }

    [[nodiscard]] std::size_t count() const noexcept { return count_; }

    /// Publishes everything pushed so far to the buffer's write position.
    void commit() noexcept {
      buf_->write_pos_ += count_ * sizeof(T);
      base_ += count_ * sizeof(T);
      max_count_ -= count_;
      count_ = 0;
    }

   private:
    friend class SequentialBuffer;
    WriteCursor(SequentialBuffer* buf, std::byte* base, std::size_t max_count) noexcept
        : buf_(buf), base_(base), max_count_(max_count) {}

    SequentialBuffer* buf_;
    std::byte* base_;
    std::size_t count_ = 0;
    std::size_t max_count_;
  };

  /// Streaming reader over `count` already-staged values of T.  The values
  /// are consumed from the buffer immediately (the read position advances at
  /// acquisition); next() then walks the span without further bookkeeping.
  template <typename T>
  class ReadCursor {
   public:
    /// Next value in FIFO order; CASC_DCHECK-only bounds.
    T next() noexcept {
      CASC_DCHECK(index_ < count_, "read cursor underflow");
      T value;
      std::memcpy(&value, base_ + index_ * sizeof(T), sizeof(T));
      ++index_;
      return value;
    }

    /// Software-prefetches the value `distance` elements ahead of the read
    /// position (clamped to the span).  The drain loop calls this so lines
    /// evicted between staging and execution are back in flight before
    /// next() needs them.
    void prefetch(std::size_t distance) const noexcept {
#if defined(__GNUC__)
      std::size_t ahead = index_ + distance;
      if (ahead >= count_) {
        if (count_ == 0) return;
        ahead = count_ - 1;
      }
      __builtin_prefetch(base_ + ahead * sizeof(T), /*rw=*/0, /*locality=*/3);
#else
      (void)distance;
#endif
    }

    [[nodiscard]] std::size_t remaining() const noexcept { return count_ - index_; }

    /// Contiguous view of the whole span (already consumed from the buffer
    /// at acquisition).  The fused drain kernels walk this directly instead
    /// of paying a next() call per value; the pointer is aligned to the
    /// buffer's allocation tier when the cursor starts at offset zero.
    [[nodiscard]] const T* data() const noexcept {
      return reinterpret_cast<const T*>(base_);
    }

   private:
    friend class SequentialBuffer;
    ReadCursor(const std::byte* base, std::size_t count) noexcept
        : base_(base), count_(count) {}

    const std::byte* base_;
    std::size_t count_;
    std::size_t index_ = 0;
  };

  /// Acquires a write cursor after ONE hard capacity check for `max_count`
  /// values of T.
  template <typename T>
  [[nodiscard]] WriteCursor<T> write_cursor(std::size_t max_count) {
    static_assert(std::is_trivially_copyable_v<T>);
    CASC_CHECK(write_pos_ + max_count * sizeof(T) <= storage_.size(),
               "sequential buffer overflow");
    return WriteCursor<T>(this, storage_.data() + write_pos_, max_count);
  }

  /// Acquires a read cursor over the next `count` staged values of T after
  /// ONE hard underflow check; the read position advances immediately.
  template <typename T>
  [[nodiscard]] ReadCursor<T> read_cursor(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    CASC_CHECK(read_pos_ + bytes <= write_pos_, "sequential buffer underflow");
    const std::byte* base = storage_.data() + read_pos_;
    read_pos_ += bytes;
    return ReadCursor<T>(base, count);
  }

  [[nodiscard]] std::size_t bytes_written() const noexcept { return write_pos_; }
  [[nodiscard]] std::size_t bytes_read() const noexcept { return read_pos_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return storage_.size(); }
  /// True when every staged value has been consumed — a useful invariant to
  /// assert at the end of a restructured chunk.
  [[nodiscard]] bool drained() const noexcept { return read_pos_ == write_pos_; }

 private:
  common::AlignedStorage storage_;
  std::size_t write_pos_ = 0;
  std::size_t read_pos_ = 0;
};

}  // namespace casc::rt
