// Per-rank FFT scratch: growth-only buffers reached through
// `util::rank_local<FftWorkspace>()` (util/exec_local.hpp), so every
// virtual rank gets its own buffers even when many rank fibers share one
// worker thread, and — after the first call at a given length — no heap
// allocation on any filter or transform path (tests/test_fft_alloc.cpp).
//
// Plans are not scratch: they are immutable and shared process-wide
// (fft/plan_cache.hpp); callers hold their shared_ptr.
//
// Borrow rules (docs/fft.md): each buffer admits ONE live borrow per rank.
//   * `complex` — FftPlan::inverse_to_real_pair and the serial filter
//     kernels borrow it internally, so a caller holding it must not call
//     those helpers; plain forward/inverse never touch it.
//   * `index` — pairing tables; the batched line filter holds it together
//     with `complex`.
//   * `gather` — FftPlan's generic-radix butterfly only; never borrowed
//     outside fft.cpp, so every transform is safe under any other borrow.
#pragma once

#include "fft/fft.hpp"
#include "util/exec_local.hpp"

namespace agcm::fft {

struct FftWorkspace {
  util::GrowBuffer<Complex, util::AlignedAllocator<Complex, 64>> complex;
  util::GrowBuffer<int> index;
  util::GrowBuffer<Complex> gather;
};

}  // namespace agcm::fft
