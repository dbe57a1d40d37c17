#include "filter/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "fft/plan_cache.hpp"
#include "singlenode/miniblas.hpp"
#include "singlenode/pointwise.hpp"

namespace agcm::filter {

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

}  // namespace

// ---------------------------------------------------------------------------
// PartitionPlan
// ---------------------------------------------------------------------------

double PartitionPlan::model_flops(int period, int kernel_len, int block) {
  const double n = static_cast<double>(period);
  const double fft_size = 2.0 * block;
  const double nparts = static_cast<double>(ceil_div(kernel_len, block));
  const double nblocks = static_cast<double>(ceil_div(period, block));
  // FftPlan's frozen accounting is 5 N log2 N per transform; the streaming
  // engine runs nblocks + nparts - 1 forward and nblocks inverse
  // transforms, plus an 8-flop complex multiply-accumulate per spectrum
  // bin per (block, partition) pair, plus the pack and overlap-save
  // writeback passes over the line.
  const double fft_each = 5.0 * fft_size * std::log2(fft_size);
  return (2.0 * nblocks + nparts - 1.0) * fft_each +
         nblocks * nparts * 8.0 * fft_size + 4.0 * n;
}

int PartitionPlan::select_block(int period, int kernel_len) {
  int best = kMinBlock;
  double best_cost = std::numeric_limits<double>::infinity();
  // Candidates are the 3-smooth sizes (2^i * 3^j): the FFT plan has
  // hand-unrolled radix-2/3/4 butterflies, so a 2B-point transform at these
  // sizes costs its model price, and the denser grid keeps the optimum cost
  // curve smooth in the period (a pure power-of-two scan leaves ~10%
  // staircase wobble, enough to blur the backend's quasi-linear complexity
  // class — see bench_scaling_model). The period/kMinHops cap enforces the
  // streaming contract: left unconstrained, the model's optimum collapses
  // to B = n (one whole-line 2n-point transform), which has no bounded
  // per-hop latency and is strictly worse than the whole-line FFT backend.
  const int cap = std::min(kMaxBlock, std::max(kMinBlock, period / kMinHops));
  for (int b3 = 1; b3 <= cap; b3 *= 3) {
    for (int b = b3; b <= cap; b *= 2) {
      if (b < kMinBlock) continue;
      const double cost = model_flops(period, kernel_len, b);
      // Strict < favours the first (smaller within its odd part) block on a
      // tie; exact ties across odd parts are broken towards the smaller
      // block below, bounding one hop's latency at no model cost.
      if (cost < best_cost || (cost == best_cost && b < best)) {
        best = b;
        best_cost = cost;
      }
    }
  }
  return best;
}

PartitionPlan PartitionPlan::make(int period, int kernel_len, int block) {
  assert(period >= 1 && kernel_len >= 1 && block >= 0);
  PartitionPlan plan;
  plan.period = period;
  plan.kernel_len = kernel_len;
  plan.block = block > 0 ? block : select_block(period, kernel_len);
  plan.fft_size = 2 * plan.block;
  plan.nparts = ceil_div(kernel_len, plan.block);
  plan.nblocks = ceil_div(period, plan.block);
  return plan;
}

// ---------------------------------------------------------------------------
// PartitionedKernel
// ---------------------------------------------------------------------------

PartitionedKernel::PartitionedKernel(std::span<const double> kernel,
                                     int period, int block)
    : plan_(PartitionPlan::make(period, static_cast<int>(kernel.size()),
                                block)),
      fft_plan_(fft::shared_plan(plan_.fft_size)) {
  const int fft_size = plan_.fft_size;
  const int nparts = plan_.nparts;
  const int taps = plan_.block;
  spectra_.assign(static_cast<std::size_t>(nparts) * fft_size,
                  fft::Complex{0.0, 0.0});
  split_.assign(static_cast<std::size_t>(2 * nparts) * fft_size, 0.0);
  // One-time build: transform each zero-padded partition with the kernel's
  // plan (the build allocates; every later use is read-only).
  const fft::FftPlan& fp = *fft_plan_;
  for (int p = 0; p < nparts; ++p) {
    std::span<fft::Complex> spec{
        spectra_.data() + static_cast<std::size_t>(p) * fft_size,
        static_cast<std::size_t>(fft_size)};
    const int tap0 = p * taps;
    const int count =
        std::min(taps, static_cast<int>(kernel.size()) - tap0);
    for (int s = 0; s < count; ++s) {
      spec[static_cast<std::size_t>(s)] = fft::Complex{kernel[tap0 + s], 0.0};
    }
    fp.forward(spec);
    double* re = split_.data() + static_cast<std::size_t>(2 * p) * fft_size;
    double* im = re + fft_size;
    for (int k = 0; k < fft_size; ++k) {
      re[k] = spec[static_cast<std::size_t>(k)].real();
      im[k] = spec[static_cast<std::size_t>(k)].imag();
    }
  }
}

std::span<const fft::Complex> PartitionedKernel::spectrum(int p) const {
  assert(p >= 0 && p < plan_.nparts);
  return {spectra_.data() + static_cast<std::size_t>(p) * plan_.fft_size,
          static_cast<std::size_t>(plan_.fft_size)};
}

std::span<const double> PartitionedKernel::spectrum_re(int p) const {
  assert(p >= 0 && p < plan_.nparts);
  return {split_.data() + static_cast<std::size_t>(2 * p) * plan_.fft_size,
          static_cast<std::size_t>(plan_.fft_size)};
}

std::span<const double> PartitionedKernel::spectrum_im(int p) const {
  assert(p >= 0 && p < plan_.nparts);
  return {split_.data() +
              static_cast<std::size_t>(2 * p + 1) * plan_.fft_size,
          static_cast<std::size_t>(plan_.fft_size)};
}

// ---------------------------------------------------------------------------
// Streaming engine
// ---------------------------------------------------------------------------

namespace {

// The shared single/pair core. For a pair the second line rides the
// imaginary lane (z = a + i b): the kernel is real, so by linearity the
// filtered pack is (a*h) + i (b*h). `line_b` empty selects the single
// form (imaginary lane carries zeros and is discarded).
void run_partition(const PartitionedKernel& kernel, std::span<double> line_a,
                   std::span<double> line_b) {
  const PartitionPlan& plan = kernel.plan();
  const int n = plan.period;
  const int hop = plan.block;
  const int fft_size = plan.fft_size;
  const int nparts = plan.nparts;
  const int nblocks = plan.nblocks;
  assert(static_cast<int>(line_a.size()) == n);
  assert(line_b.empty() || static_cast<int>(line_b.size()) == n);

  const fft::FftPlan& fp = kernel.fft_plan();
  PartitionWorkspace& ws = util::rank_local<PartitionWorkspace>();
  std::span<fft::Complex> stage = ws.staging.take(static_cast<std::size_t>(n));
  std::span<fft::Complex> blk =
      ws.block.take(static_cast<std::size_t>(fft_size));
  // Plane layout: nparts delay-line slots of [re | im], then the output
  // accumulator pair, then one multiply scratch plane.
  std::span<double> planes = ws.planes.take(
      static_cast<std::size_t>(2 * nparts + 3) * fft_size);
  double* acc_re = planes.data() +
                   static_cast<std::size_t>(2 * nparts) * fft_size;
  double* acc_im = acc_re + fft_size;
  double* scratch = acc_im + fft_size;

  // Output hops overwrite the line the next (and the wrapping) input
  // windows still need, so the engine streams from a packed copy and
  // writes results straight into the caller's storage.
  if (line_b.empty()) {
    for (int i = 0; i < n; ++i) {
      stage[static_cast<std::size_t>(i)] = fft::Complex{line_a[i], 0.0};
    }
  } else {
    for (int i = 0; i < n; ++i) {
      stage[static_cast<std::size_t>(i)] =
          fft::Complex{line_a[i], line_b[i]};
    }
  }

  // Hop m consumes windows m, m-1, ..., m-nparts+1, so the loop starts at
  // m = -(nparts - 1) to prime the delay line (mod-n reads make negative
  // windows wrap to the end of the circle) and produces output for m >= 0.
  for (int m = -(nparts - 1); m < nblocks; ++m) {
    // Gather window m: samples [m*hop - hop, m*hop + hop) mod n.
    int idx = ((m * hop - hop) % n + n) % n;
    for (int t = 0; t < fft_size; ++t) {
      blk[static_cast<std::size_t>(t)] = stage[static_cast<std::size_t>(idx)];
      if (++idx == n) idx = 0;
    }
    fp.forward(blk);
    const int slot = ((m % nparts) + nparts) % nparts;
    double* slot_re =
        planes.data() + static_cast<std::size_t>(2 * slot) * fft_size;
    double* slot_im = slot_re + fft_size;
    for (int k = 0; k < fft_size; ++k) {
      slot_re[k] = blk[static_cast<std::size_t>(k)].real();
      slot_im[k] = blk[static_cast<std::size_t>(k)].imag();
    }
    if (m < 0) continue;

    // Frequency-domain MAC: acc = sum_d H_d * X_{m-d}, complex multiply
    // expanded over the split planes so every pass runs through the
    // dispatched pointwise / daxpy families (bitwise across SIMD tiers).
    std::fill(acc_re, acc_re + fft_size, 0.0);
    std::fill(acc_im, acc_im + fft_size, 0.0);
    const std::size_t len = static_cast<std::size_t>(fft_size);
    for (int d = 0; d < nparts; ++d) {
      const int src = (((m - d) % nparts) + nparts) % nparts;
      const double* x_re =
          planes.data() + static_cast<std::size_t>(2 * src) * fft_size;
      const double* x_im = x_re + fft_size;
      const double* h_re = kernel.spectrum_re(d).data();
      const double* h_im = kernel.spectrum_im(d).data();
      std::span<double> scr{scratch, len};
      singlenode::pointwise_multiply_dispatch({x_re, len}, {h_re, len}, scr);
      singlenode::daxpy_dispatch(1.0, scr, {acc_re, len});
      singlenode::pointwise_multiply_dispatch({x_im, len}, {h_im, len}, scr);
      singlenode::daxpy_dispatch(-1.0, scr, {acc_re, len});
      singlenode::pointwise_multiply_dispatch({x_im, len}, {h_re, len}, scr);
      singlenode::daxpy_dispatch(1.0, scr, {acc_im, len});
      singlenode::pointwise_multiply_dispatch({x_re, len}, {h_im, len}, scr);
      singlenode::daxpy_dispatch(1.0, scr, {acc_im, len});
    }

    // Back to time domain; overlap-save keeps the last `hop` samples (the
    // first half is circular wrap-around of the small transform, already
    // produced by the previous hop).
    for (int k = 0; k < fft_size; ++k) {
      blk[static_cast<std::size_t>(k)] = fft::Complex{acc_re[k], acc_im[k]};
    }
    fp.inverse(blk);
    const int out0 = m * hop;
    const int count = std::min(hop, n - out0);
    for (int t = 0; t < count; ++t) {
      line_a[out0 + t] = blk[static_cast<std::size_t>(hop + t)].real();
    }
    if (!line_b.empty()) {
      for (int t = 0; t < count; ++t) {
        line_b[out0 + t] = blk[static_cast<std::size_t>(hop + t)].imag();
      }
    }
  }
}

}  // namespace

void filter_line_partition(const PartitionedKernel& kernel,
                           std::span<double> line) {
  run_partition(kernel, line, {});
}

void filter_line_pair_partition(const PartitionedKernel& kernel,
                                std::span<double> line_a,
                                std::span<double> line_b) {
  run_partition(kernel, line_a, line_b);
}

void convolve_circular_direct(std::span<const double> kernel,
                              std::span<double> line) {
  const int n = static_cast<int>(line.size());
  const int taps = static_cast<int>(kernel.size());
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int s = 0; s < taps; ++s) {
      int j = (i - s) % n;
      if (j < 0) j += n;
      sum += kernel[static_cast<std::size_t>(s)] *
             line[static_cast<std::size_t>(j)];
    }
    out[static_cast<std::size_t>(i)] = sum;
  }
  std::copy(out.begin(), out.end(), line.begin());
}

}  // namespace agcm::filter
