// Serial (single-line and batched) filtering primitives. These are the
// computational kernels all four parallel variants share; the serial
// versions also serve as the correctness oracle for the parallel module
// tests.
//
// All FFT-based kernels here take their scratch from the rank's
// fft::FftWorkspace (util::rank_local), so after the first call at a given
// length no filter call allocates (enforced by tests/test_fft_alloc.cpp).
#pragma once

#include <span>

#include "fft/fft.hpp"
#include "filter/bank.hpp"

namespace agcm::filter {

/// Filters one longitude circle in place by wavenumber-space multiplication:
/// line <- IDFT( S .* DFT(line) ). `s_line` must have the line's length.
/// Allocation-free after workspace warm-up.
void filter_line_fft(const fft::FftPlan& plan, std::span<double> line,
                     std::span<const double> s_line);

/// Filters two lines with a single complex transform each way (the
/// two-for-one real-FFT trick); each line gets its own response. Halves
/// the transform work relative to two filter_line_fft calls. The spectral
/// multiply is fused into the packed transform (no per-line spectrum
/// buffers), and when both responses are the *same table row* the split /
/// merge collapses to one real multiply per spectral point.
/// Allocation-free after workspace warm-up.
void filter_line_pair_fft(const fft::FftPlan& plan, std::span<double> line_a,
                          std::span<double> line_b,
                          std::span<const double> s_a,
                          std::span<const double> s_b);

/// Batched line filter — the primitive the FFT variants schedule. Filters
/// `lines.size()` whole longitude circles laid out back-to-back in `data`
/// (plan.size() doubles per line, in `lines` order) in place, looking up
/// each line's response in the bank. Lines are pair-packed through the
/// two-for-one real FFT, preferring pairs that share a response row (same
/// variable kind and latitude — e.g. the nlev layers of one (var, j)), so
/// most pairs take the cheap same-response spectral multiply. Exactly
/// floor(n/2) pair transforms plus (n%2) single transforms are performed —
/// the same schedule the virtual-clock accounting in
/// filter_owned_lines_fft has always charged. Allocation-free after
/// workspace warm-up.
void filter_lines_fft(const fft::FftPlan& plan, const FilterBank& bank,
                      std::span<const LineKey> lines, std::span<double> data);

/// Batched partitioned overlap-save driver (docs/filter.md) — the
/// primitive the convolution-partitioned variant schedules. Filters
/// `lines.size()` whole longitude circles laid out back-to-back in `data`
/// (nlon doubles per line, in `lines` order) in place, streaming each
/// through the bank's cached PartitionedKernel for its row. Lines sharing
/// a response row ride two-for-one through the packed-complex engine
/// (the partitioned kernel is real, so a + i b filters both lanes at
/// once); unmatched lines run single — unlike the FFT batcher, cross-row
/// pairing is impossible because a pair must share one kernel. Returns the
/// number of pair streams performed (count - 2*pairs lines ran single), so
/// the caller can charge the virtual clock for the exact schedule.
/// Deterministic; allocation-free after bank + workspace warm-up.
int filter_lines_partition(const FilterBank& bank,
                           std::span<const LineKey> lines,
                           std::span<double> data);

/// Filters one longitude circle in place by direct circular convolution with
/// `kernel` (the paper's original formulation, equation (2)).
void filter_line_convolution(std::span<double> line,
                             std::span<const double> kernel);

/// Convolution restricted to output indices [out_begin, out_begin+out_count)
/// of the circle; used by the parallel ring variant, where each node only
/// produces its own chunk of the filtered line. `line` is the full circle.
void filter_chunk_convolution(std::span<const double> line,
                              std::span<const double> kernel, int out_begin,
                              int out_count, std::span<double> out);

/// Virtual-clock flop counts for the kernels above. FROZEN to the paper's
/// accounting (see docs/fft.md): host-side optimisation never changes them.
double fft_filter_flops(int n);
double fft_filter_pair_flops(int n);  ///< two lines, one transform each way
double convolution_filter_flops(int n);               ///< full line
double convolution_chunk_flops(int n, int out_count); ///< chunk of a line

}  // namespace agcm::filter
