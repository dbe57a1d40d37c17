// Recycling byte-buffer pool backing the zero-copy simnet transport.
//
// Every message payload that crosses the virtual interconnect lives in a
// `Buffer`: a movable RAII handle over a `std::vector<std::byte>` borrowed
// from a per-`Network` `BufferPool`. Senders pack directly into pool
// storage, the buffer is *moved* (never copied) through the mailbox, and
// when the receiver's handle dies the storage returns to the pool with its
// capacity intact ("growth-only"): after a warm-up phase in which every
// live buffer has grown to the largest payload it ever carried, the
// steady-state communication hot path performs zero heap allocations
// (tests/test_comm_alloc.cpp proves it with an operator-new hook). The
// pool files storage in power-of-two size classes, so both acquire and
// release are constant-time (see BufferPool).
//
// Lifetime rule: a pooled Buffer must not outlive the Network whose pool it
// came from (in practice: don't let Buffers escape the SPMD program passed
// to Machine::run). Unpooled Buffers (Buffer::unpooled) own their storage
// outright and are used by tests and tooling that have no Network.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace agcm::simnet {

class BufferPool;

/// Movable RAII handle over pooled (or standalone) byte storage.
class Buffer {
 public:
  Buffer() = default;

  Buffer(Buffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        storage_(std::move(other.storage_)) {
    other.storage_.clear();
  }

  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = std::exchange(other.pool_, nullptr);
      storage_ = std::move(other.storage_);
      other.storage_.clear();
    }
    return *this;
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  ~Buffer() { release(); }

  /// A self-owning buffer with no pool behind it (tests, tooling).
  static Buffer unpooled(std::vector<std::byte> bytes) {
    Buffer b;
    b.storage_ = std::move(bytes);
    return b;
  }

  std::byte* data() { return storage_.data(); }
  const std::byte* data() const { return storage_.data(); }
  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  std::size_t capacity() const { return storage_.capacity(); }

  std::byte& operator[](std::size_t i) { return storage_[i]; }
  const std::byte& operator[](std::size_t i) const { return storage_[i]; }

  std::span<std::byte> span() { return storage_; }
  std::span<const std::byte> span() const { return storage_; }

  /// Grows or shrinks the logical size (capacity never shrinks).
  void resize(std::size_t bytes) { storage_.resize(bytes); }

 private:
  friend class BufferPool;
  Buffer(BufferPool* pool, std::vector<std::byte> storage)
      : pool_(pool), storage_(std::move(storage)) {}

  void release();

  BufferPool* pool_ = nullptr;
  std::vector<std::byte> storage_;
};

/// Thread-safe freelist of byte vectors, binned by power-of-two capacity
/// class, with growth-only capacity. Shared by every rank of a Network: a
/// payload acquired by the sender is released back by whichever rank's
/// handle dies last.
///
/// Storage of capacity c sits in bin floor_log2(c)+1 (bin 0 holds empty
/// storage); every storage in bin b >= 1 covers any request of up to
/// 2^(b-1) bytes. A request of n bytes therefore takes the first non-empty
/// bin at or above ceil_log2(n)+1 — the smallest class that is guaranteed
/// to fit, so small messages never steal large buffers from large ones.
/// When no such bin is non-empty it grows a storage from the largest
/// non-empty smaller bin. Every allocation reserves the full class size
/// 2^ceil_log2(n), so capacities stay class-aligned and the steady state
/// stays allocation-free. A bitmask of non-empty bins makes both lookups a
/// single bit scan: acquire and release are O(1), and the mutex is held
/// only for the bin pop or push.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Hands out a buffer of exactly `bytes` logical size (see the class
  /// comment for which storage it picks).
  Buffer acquire(std::size_t bytes) {
    const unsigned want = request_bin(bytes);
    std::vector<std::byte> storage;
    {
      std::lock_guard lock(mutex_);
      if (nonempty_ != 0) {
        const std::uint64_t fits = want < kBins ? nonempty_ >> want : 0;
        const unsigned bin =
            fits != 0 ? want + static_cast<unsigned>(std::countr_zero(fits))
                      : static_cast<unsigned>(std::bit_width(nonempty_)) - 1;
        storage = take(bin);
        ++reuses_;
      } else {
        ++misses_;
      }
      ++outstanding_;
    }
    if (storage.capacity() < bytes) storage.reserve(class_bytes(bytes));
    storage.resize(bytes);
    return Buffer(this, std::move(storage));
  }

  /// Pre-populates the freelist with `count` storages of `bytes` capacity,
  /// rounded up to the class size. Optional: pools self-warm after a few
  /// sweeps anyway, but a prewarmed pool covering the workload's peak
  /// concurrency is allocation-free from the very first message
  /// (tests/test_comm_alloc.cpp uses this to make the zero-allocation
  /// assertion deterministic under any thread interleaving).
  void prewarm(std::size_t count, std::size_t bytes) {
    std::lock_guard lock(mutex_);
    for (std::size_t q = 0; q < count; ++q) {
      std::vector<std::byte> storage;
      storage.reserve(class_bytes(bytes));
      put(std::move(storage));
    }
  }

  // --- statistics (diagnostics / bench instrumentation) --------------------

  /// Buffers currently held by live handles or in-flight packets.
  std::size_t outstanding() const {
    std::lock_guard lock(mutex_);
    return outstanding_;
  }
  /// Buffers sitting in the freelist.
  std::size_t free_count() const {
    std::lock_guard lock(mutex_);
    return free_count_;
  }
  /// acquire() calls served from the freelist.
  std::size_t reuses() const {
    std::lock_guard lock(mutex_);
    return reuses_;
  }
  /// acquire() calls that had to start from empty storage.
  std::size_t misses() const {
    std::lock_guard lock(mutex_);
    return misses_;
  }

  /// The bin a storage of `capacity` bytes is filed under (0 when empty).
  static unsigned capacity_bin(std::size_t capacity) {
    return static_cast<unsigned>(std::bit_width(capacity));
  }
  /// The smallest bin whose every storage covers a `bytes` request.
  static unsigned request_bin(std::size_t bytes) {
    return bytes == 0 ? 0 : static_cast<unsigned>(std::bit_width(bytes - 1)) + 1;
  }

 private:
  friend class Buffer;

  static constexpr unsigned kBins = 64;

  /// The capacity an allocation for a `bytes` request reserves.
  static std::size_t class_bytes(std::size_t bytes) {
    return bytes == 0 ? 0 : std::bit_ceil(bytes);
  }

  void release(std::vector<std::byte>&& storage) {
    storage.clear();  // keeps capacity: the whole point of the pool
    std::lock_guard lock(mutex_);
    put(std::move(storage));
    --outstanding_;
  }

  // Both require mutex_.
  void put(std::vector<std::byte>&& storage) {
    const unsigned bin = std::min(capacity_bin(storage.capacity()), kBins - 1);
    bins_[bin].push_back(std::move(storage));
    nonempty_ |= std::uint64_t{1} << bin;
    ++free_count_;
  }
  std::vector<std::byte> take(unsigned bin) {
    auto& stack = bins_[bin];
    std::vector<std::byte> storage = std::move(stack.back());
    stack.pop_back();
    if (stack.empty()) nonempty_ &= ~(std::uint64_t{1} << bin);
    --free_count_;
    return storage;
  }

  mutable std::mutex mutex_;
  std::array<std::vector<std::vector<std::byte>>, kBins> bins_;  ///< LIFO
  std::uint64_t nonempty_ = 0;  ///< bit b set iff bins_[b] is non-empty
  std::size_t free_count_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t reuses_ = 0;
  std::size_t misses_ = 0;
};

inline void Buffer::release() {
  if (pool_ != nullptr) {
    pool_->release(std::move(storage_));
    pool_ = nullptr;
  }
  storage_.clear();
}

}  // namespace agcm::simnet
