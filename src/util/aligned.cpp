#include "util/aligned.hpp"

#include <cstdint>
#include <mutex>

namespace agcm::util {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define AGCM_RECYCLE_LARGE_BLOCKS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AGCM_RECYCLE_LARGE_BLOCKS 0
#endif
#endif
#ifndef AGCM_RECYCLE_LARGE_BLOCKS
// AddressSanitizer builds skip recycling, so that a use after free of a
// field array is still reported.
#define AGCM_RECYCLE_LARGE_BLOCKS 1
#endif

/// The header a cached block carries in its own first bytes, so the cache
/// itself never allocates. Each block is on two lists: its size bucket, and
/// the recency list that eviction takes the oldest block from.
struct FreeBlock {
  std::size_t bytes;
  std::size_t align;
  FreeBlock* bucket_next;
  FreeBlock* bucket_prev;
  FreeBlock* newer;
  FreeBlock* older;
};
static_assert(sizeof(FreeBlock) <= detail::kRecycleMinBytes);

/// Cached blocks by exact (bytes, alignment), bounded by the live
/// high-water mark: at most peak_live_bytes stay cached, the oldest
/// returned block leaving first. A process that repeats one run shape keeps
/// exactly that run's blocks; one that moves to other shapes frees the
/// stale sizes as the new ones come back.
class LargeBlockCache {
 public:
  void* take(std::size_t bytes, std::size_t align) {
    {
      std::lock_guard lock(mutex_);
      for (FreeBlock* b = buckets_[bucket_of(bytes)]; b != nullptr;
           b = b->bucket_next) {
        if (b->bytes != bytes || b->align != align) continue;
        unlink(b);
        stats_.cached_bytes -= bytes;
        --stats_.cached_blocks;
        ++stats_.reuses;
        note_live(bytes);
        return b;
      }
      ++stats_.misses;
      note_live(bytes);
    }
    try {
      return ::operator new(bytes, std::align_val_t{align});
    } catch (...) {
      std::lock_guard lock(mutex_);
      stats_.live_bytes -= bytes;
      throw;
    }
  }

  void give(void* p, std::size_t bytes, std::size_t align) noexcept {
    FreeBlock* evicted = nullptr;
    {
      std::lock_guard lock(mutex_);
      stats_.live_bytes -= bytes;
      auto* b = ::new (p) FreeBlock{bytes, align, nullptr, nullptr, nullptr,
                                    nullptr};
      link(b);
      stats_.cached_bytes += bytes;
      ++stats_.cached_blocks;
      evicted = evict_over(stats_.peak_live_bytes);
    }
    release(evicted);
  }

  void clear() noexcept {
    FreeBlock* evicted = nullptr;
    {
      std::lock_guard lock(mutex_);
      evicted = evict_over(0);
    }
    release(evicted);
  }

  LargeBlockStats stats() {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  static constexpr std::size_t kBuckets = 256;

  static std::size_t bucket_of(std::size_t bytes) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(bytes) * 0x9E3779B97F4A7C15ull) >> 56);
  }

  void note_live(std::size_t bytes) {
    stats_.live_bytes += bytes;
    if (stats_.live_bytes > stats_.peak_live_bytes)
      stats_.peak_live_bytes = stats_.live_bytes;
  }

  /// Pushes `b` as the newest block, and at the head of its bucket.
  void link(FreeBlock* b) {
    FreeBlock*& head = buckets_[bucket_of(b->bytes)];
    b->bucket_next = head;
    if (head != nullptr) head->bucket_prev = b;
    head = b;
    b->older = newest_;
    if (newest_ != nullptr) newest_->newer = b;
    newest_ = b;
    if (oldest_ == nullptr) oldest_ = b;
  }

  void unlink(FreeBlock* b) {
    if (b->bucket_prev != nullptr)
      b->bucket_prev->bucket_next = b->bucket_next;
    else
      buckets_[bucket_of(b->bytes)] = b->bucket_next;
    if (b->bucket_next != nullptr) b->bucket_next->bucket_prev = b->bucket_prev;
    if (b->newer != nullptr) b->newer->older = b->older; else newest_ = b->older;
    if (b->older != nullptr) b->older->newer = b->newer; else oldest_ = b->newer;
  }

  /// Unlinks the oldest blocks until at most `budget` bytes stay cached;
  /// returns them chained through `older`, to be freed after unlocking.
  FreeBlock* evict_over(std::size_t budget) {
    FreeBlock* chain = nullptr;
    while (stats_.cached_bytes > budget) {
      FreeBlock* b = oldest_;
      unlink(b);
      stats_.cached_bytes -= b->bytes;
      --stats_.cached_blocks;
      b->older = chain;
      chain = b;
    }
    return chain;
  }

  static void release(FreeBlock* chain) noexcept {
    while (chain != nullptr) {
      FreeBlock* next = chain->older;
      const std::size_t bytes = chain->bytes;
      const std::size_t align = chain->align;
      chain->~FreeBlock();
      ::operator delete(static_cast<void*>(chain), bytes,
                        std::align_val_t{align});
      chain = next;
    }
  }

  std::mutex mutex_;
  FreeBlock* buckets_[kBuckets] = {};
  FreeBlock* newest_ = nullptr;
  FreeBlock* oldest_ = nullptr;
  LargeBlockStats stats_;
};

/// Never destroyed: field arrays owned by static objects may be freed
/// after every other static is gone.
LargeBlockCache& cache() {
  alignas(LargeBlockCache) static unsigned char storage[sizeof(LargeBlockCache)];
  static LargeBlockCache* instance = ::new (storage) LargeBlockCache();
  return *instance;
}

}  // namespace

namespace detail {

void* allocate_large(std::size_t bytes, std::size_t align) {
  if constexpr (AGCM_RECYCLE_LARGE_BLOCKS) return cache().take(bytes, align);
  return ::operator new(bytes, std::align_val_t{align});
}

void deallocate_large(void* p, std::size_t bytes, std::size_t align) noexcept {
  if constexpr (AGCM_RECYCLE_LARGE_BLOCKS)
    cache().give(p, bytes, align);
  else
    ::operator delete(p, bytes, std::align_val_t{align});
}

}  // namespace detail

LargeBlockStats large_block_stats() { return cache().stats(); }

void release_cached_large_blocks() { cache().clear(); }

}  // namespace agcm::util
