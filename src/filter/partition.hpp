// Uniform-partitioned overlap-save streaming convolution (ISSUE 8 /
// ROADMAP open item 5) — the third polar-filter backend, between the
// paper's two extremes:
//
//   direct convolution   O(n * L)      per line (Tables 8-11, "old" filter)
//   whole-line FFT       O(n log n)    per line, but needs the full circle
//                                      resident and a length-n transform
//   partitioned OLS      O(n log B + n * L / B)  per line, streaming in
//                        fixed-size blocks of B samples through a small
//                        length-2B FFT core
//
// The kernel (length L taps, acting circularly on a period-n line) is cut
// into P = ceil(L/B) partitions of B taps, each zero-padded to N = 2B and
// pre-transformed once (cached in the FilterBank next to the equivalent
// convolution kernels). The engine then hops through the line B samples at
// a time: FFT one 2B-sample input window per hop, push its spectrum into a
// P-deep frequency-domain delay line, multiply-accumulate the cached
// partition spectra against the delay line, inverse-FFT, and keep the last
// B samples (overlap-save discards the wrap-around half). Block b's output
// needs windows b, b-1, ..., b-P+1, so each input window is transformed
// exactly once: ceil(n/B) + P - 1 forward and ceil(n/B) inverse transforms
// per line.
//
// Design notes:
//   * Frequency-domain storage is split into re/im planes so the
//     multiply-accumulate runs through the dispatched SIMD families
//     (pointwise panels + daxpy, kernels/simd/dispatch.hpp): bitwise
//     identical on every tier, scalar fallback automatic on demotion.
//     The interleaved AlignedComplexVec form is kept alongside as the
//     canonical cached artefact (64-byte aligned, like the FFT twiddles).
//   * All per-call scratch lives in the rank's PartitionWorkspace
//     (util::rank_local, growth-only) and each kernel holds its small-FFT
//     plan — allocation-free after warm-up, enforced by
//     tests/test_fft_alloc.cpp.
//   * This backend is NEW relative to the paper: its virtual-clock
//     accounting (PartitionPlan::flops) is deterministic but NOT part of
//     the frozen Tables 1-11 formulas — the backend is opt-in and never
//     runs inside a frozen artefact. See docs/filter.md.
#pragma once

#include <memory>
#include <span>

#include "fft/fft.hpp"
#include "util/aligned.hpp"
#include "util/exec_local.hpp"

namespace agcm::filter {

/// 64-byte aligned double storage for the split re/im spectrum planes the
/// dispatched multiply-accumulate consumes.
using AlignedDoubleVec = std::vector<double, util::AlignedAllocator<double, 64>>;

/// Geometry of one uniform-partitioned overlap-save evaluation: circular
/// line of `period` samples, kernel of `kernel_len` taps (may exceed the
/// period — taps alias onto the circle), processed in hops of `block`
/// samples through a `fft_size` = 2*block transform.
struct PartitionPlan {
  int period = 0;      ///< n: length of the circular data line
  int kernel_len = 0;  ///< L: taps of the convolution kernel
  int block = 0;       ///< B: hop size (output samples per inverse FFT)
  int fft_size = 0;    ///< N = 2B: transform length of the small FFT core
  int nparts = 0;      ///< P = ceil(L / B): kernel partitions
  int nblocks = 0;     ///< ceil(n / B): output hops per line

  /// Builds a plan; block == 0 selects B via select_block, otherwise the
  /// given block (any positive hop size — tests force awkward ones).
  static PartitionPlan make(int period, int kernel_len, int block = 0);

  /// Deterministic block-size selection: the 3-smooth size (2^i * 3^j) B in
  /// [kMinBlock, min(kMaxBlock, max(kMinBlock, period/kMinHops))] minimising
  /// model_flops (ties -> smaller B). The FFT plan unrolls radix-2/3/4
  /// butterflies, so the dense candidate grid is free and keeps the optimum
  /// cost curve smooth in the period; the period/kMinHops cap is the
  /// streaming contract — without it the model degenerates to one
  /// whole-line 2n-point transform (B = n, P = 1), which forfeits the
  /// bounded per-hop latency that distinguishes this backend. Pure
  /// integer/double arithmetic — byte-stable.
  static int select_block(int period, int kernel_len);

  /// The deterministic cost model the selection minimises and the virtual
  /// clock charges (docs/filter.md, "block-size selection"):
  ///   (2*ceil(n/B) + P - 1) * 5*N*log2(N)   forward + inverse transforms
  /// + ceil(n/B) * P * 8*N                   frequency-domain MAC
  /// + 4*n                                   pack + overlap-save writeback
  /// NEW accounting (not one of the frozen paper formulas).
  static double model_flops(int period, int kernel_len, int block);

  static constexpr int kMinBlock = 16;
  static constexpr int kMaxBlock = 2048;
  static constexpr int kMinHops = 4;  ///< latency cap: B <= period/kMinHops

  /// Virtual-clock flops of filtering one line with this plan.
  double flops() const { return model_flops(period, kernel_len, block); }
  /// ... and of a two-for-one packed pair (second line rides the imaginary
  /// lane of the same transforms; only its unpack is extra).
  double pair_flops() const { return flops() + 2.0 * period; }
};

/// The pre-transformed kernel partitions: P spectra of length N, cached
/// per (kind, latitude row) in the FilterBank via the same lazy call_once
/// path as the equivalent convolution kernels.
class PartitionedKernel {
 public:
  /// Transforms `kernel` (kernel_len taps) for a period-`period` line.
  /// block == 0 auto-selects. Allocates (one-time build — callers cache).
  PartitionedKernel(std::span<const double> kernel, int period,
                    int block = 0);

  const PartitionPlan& plan() const { return plan_; }
  /// The shared length-fft_size transform the engine streams through.
  const fft::FftPlan& fft_plan() const { return *fft_plan_; }

  /// Partition p's spectrum, interleaved (diagnostics/tests).
  std::span<const fft::Complex> spectrum(int p) const;
  /// Partition p's spectrum, split planes (the engine's MAC inputs).
  std::span<const double> spectrum_re(int p) const;
  std::span<const double> spectrum_im(int p) const;

 private:
  PartitionPlan plan_;
  std::shared_ptr<const fft::FftPlan> fft_plan_;
  fft::AlignedComplexVec spectra_;  ///< P * N interleaved, partition-major
  AlignedDoubleVec split_;          ///< per partition: [re N | im N]
};

/// Per-rank scratch for the streaming engine (util::rank_local): the packed
/// input copy, the interleaved transform block, and the split-plane
/// frequency-domain delay line.
struct PartitionWorkspace {
  using ComplexBuffer =
      util::GrowBuffer<fft::Complex, util::AlignedAllocator<fft::Complex, 64>>;
  ComplexBuffer staging;
  ComplexBuffer block;
  util::GrowBuffer<double, util::AlignedAllocator<double, 64>> planes;
};

/// Filters one circular line in place with the partitioned kernel:
/// line[i] <- sum_s kernel[s] * line[(i - s) mod n]. Allocation-free after
/// workspace warm-up; bitwise identical across SIMD tiers (dispatched
/// families + scalar FFT path only).
void filter_line_partition(const PartitionedKernel& kernel,
                           std::span<double> line);

/// Two-for-one form: both lines share the (real) kernel, so the complex
/// pack z = a + i b streams through the very same transforms and the
/// filtered lines split back out of the real/imaginary lanes.
void filter_line_pair_partition(const PartitionedKernel& kernel,
                                std::span<double> line_a,
                                std::span<double> line_b);

/// O(n * L) reference for the same operator (the correctness oracle the
/// equivalence tests and the bench gate measure against).
void convolve_circular_direct(std::span<const double> kernel,
                              std::span<double> line);

}  // namespace agcm::filter
