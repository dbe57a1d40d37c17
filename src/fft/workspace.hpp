// Per-rank FFT workspace: plan cache + reusable scratch buffers.
//
// `local()` resolves through the executing rank's util::ExecSlot (the
// explicit per-rank handle both simnet backends install around rank code —
// see util/exec_local.hpp), so every virtual rank gets its own plans and
// buffers even when many rank fibers share one worker thread: no locking,
// no false sharing, no cross-rank reuse after a fiber migrates, and — after
// the first call at a given length — no heap allocation on any filter or
// transform path (the acceptance criterion the allocation-counting test in
// tests/test_fft_alloc.cpp enforces). Callers off the virtual machine
// (tests, tools, benches driving transforms directly) fall back to a plain
// thread_local instance.
//
// Lifetime rules (see docs/fft.md):
//   * `local()` lives as long as its rank's run (or its thread, for the
//     off-machine fallback); plan references returned by `plan(n)` remain
//     valid for that lifetime (plans are never evicted).
//   * At most ONE `complex_buffer()` borrow may be live at a time per
//     rank. FftPlan transforms never borrow, so a caller may hold the
//     buffer across forward/inverse calls; helpers that borrow internally
//     (FftPlan::inverse_to_real_pair, the serial filter kernels) must not
//     be called while the caller holds a borrow.
//   * `index_buffer()` is an independent borrow with the same single-borrow
//     rule; the batched line filter holds one of each simultaneously.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fft/fft.hpp"
#include "util/exec_local.hpp"

namespace agcm::fft {

class FftWorkspace {
 public:
  /// The executing virtual rank's workspace (via the installed ExecSlot),
  /// or a thread_local fallback for callers outside any SPMD run.
  static FftWorkspace& local();

  FftWorkspace(const FftWorkspace&) = delete;
  FftWorkspace& operator=(const FftWorkspace&) = delete;

  /// Cached plan for length n. A per-rank miss resolves through the
  /// process-wide fft::shared_plan cache (one immutable plan per length,
  /// shared across ranks and concurrent Machines) and memoizes the handle,
  /// so warm calls never lock. Plan construction is deterministic, so
  /// cached, shared and fresh plans produce bit-identical transforms —
  /// tested in tests/test_fft.cpp.
  const FftPlan& plan(int n);

  /// Reusable complex scratch of at least `count` elements. Grows (and
  /// allocates) only when `count` exceeds the high-water mark; contents are
  /// unspecified on entry.
  std::span<Complex> complex_buffer(std::size_t count);

  /// Reusable int scratch (pairing/index tables), same growth contract.
  std::span<int> index_buffer(std::size_t count);

  std::size_t plan_count() const { return plans_.size(); }
  std::size_t complex_capacity() const { return complex_.size(); }

  /// Drops all cached plans and buffers (tests only — invalidates every
  /// outstanding plan reference and borrow).
  void reset();

 private:
  friend class agcm::util::ExecSlot;  // slot-local construction in local()
  FftWorkspace() = default;

  struct Entry {
    int n;
    std::shared_ptr<const FftPlan> plan;  ///< usually the process-wide plan
  };
  std::vector<Entry> plans_;  ///< few distinct lengths; linear scan
  AlignedComplexVec complex_;  ///< 64-byte aligned, like the plan tables
  std::vector<int> index_;
};

}  // namespace agcm::fft
