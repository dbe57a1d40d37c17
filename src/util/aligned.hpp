// Over-aligned allocation, shared by the layers that feed SIMD kernels.
//
// Originally private to grid/array3d.hpp; hoisted into util so the FFT
// twiddle tables and workspace scratch (fft/) can use the same 64-byte
// alignment as the field arrays without linking grid (agcm_fft depends on
// agcm_util only — see src/CMakeLists.txt for the layering).
//
// Large blocks (the field arrays and per-rank scratch) are recycled
// process-wide by exact size and alignment. A rank's blocks are allocated
// on whichever fiber worker runs it, and glibc serves each worker thread
// from its own arena. Without recycling, a run's freed fields sit in the
// arenas of the workers that built them, the next run spreads its ranks
// over the workers differently and grows other arenas, and the process's
// resident set drifts upward at random with the number of runs
// (docs/simnet.md, "Memory across runs"). With recycling, the next run of
// the same shape takes the same blocks back, whatever worker asks.
#pragma once

#include <cstddef>
#include <new>

namespace agcm::util {

namespace detail {
/// Blocks of at least this many bytes go through the large-block recycler;
/// smaller ones go straight to the aligned operator new.
inline constexpr std::size_t kRecycleMinBytes = std::size_t{64} * 1024;

void* allocate_large(std::size_t bytes, std::size_t align);
void deallocate_large(void* p, std::size_t bytes, std::size_t align) noexcept;
}  // namespace detail

/// The large-block recycler's counters (bytes are requested sizes).
struct LargeBlockStats {
  std::size_t live_bytes = 0;       ///< handed out and not yet returned
  std::size_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
  std::size_t cached_bytes = 0;     ///< returned and kept for reuse
  std::size_t cached_blocks = 0;
  std::size_t reuses = 0;           ///< requests served from the cache
  std::size_t misses = 0;           ///< requests that reached operator new
};

LargeBlockStats large_block_stats();

/// Frees every cached block to the system allocator (live blocks are
/// untouched). Tests use it to start from an empty cache.
void release_cached_large_blocks();

/// Minimal std::allocator drop-in that over-aligns every block to `Align`
/// bytes via the aligned operator new (so allocation-counting tests that
/// hook the global operators still see these allocations). Blocks of
/// detail::kRecycleMinBytes or more are recycled (above): a request that
/// the cache serves reaches no operator new.
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= detail::kRecycleMinBytes)
      return static_cast<T*>(detail::allocate_large(bytes, Align));
    return static_cast<T*>(::operator new(bytes, std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= detail::kRecycleMinBytes)
      detail::deallocate_large(p, bytes, Align);
    else
      ::operator delete(p, bytes, std::align_val_t{Align});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

}  // namespace agcm::util
