// Iterative mixed-radix complex FFT (Cooley-Tukey, decimation in time).
//
// The paper replaces the AGCM's convolution filter with FFTs performed
// locally after a data transpose, using "highly efficient (sometimes vendor
// provided) FFT library codes on whole latitudinal data lines". This module
// is the substitute for those vendor libraries, and since the FFT *is* the
// hot kernel of this reproduction it is built like one:
//
//   * the constructor compiles a *stage plan* — factor sequence, per-stage
//     twiddle tables (forward and inverse), and the mixed-radix
//     digit-reversal permutation flattened into a swap program — so
//     `forward`/`inverse` execute straight-line table-driven stages with no
//     per-call factorisation, no modulo arithmetic, and no heap traffic;
//   * radix-2/3/4/5 butterflies are hand-unrolled (144 = 4*4*3*3 runs
//     entirely on the unrolled paths); any other prime factor takes a
//     generic-radix butterfly that is still table-driven;
//   * real lines go through the two-for-one pack (z = x + i y) with an
//     in-place split/merge, the trick the era's vendor real-FFT entry
//     points used.
//
// Layering note: an FftPlan is immutable after construction. The scratch
// the generic-radix butterfly and inverse_to_real_pair need comes from the
// calling rank's FftWorkspace (fft/workspace.hpp, via util::rank_local), so
// one plan can serve any number of concurrent callers and no transform
// allocates once that scratch is warm. See docs/fft.md for the plan layout
// and the workspace borrow rules.
//
// Virtual-clock accounting (`flops()`) is frozen to the paper's 5 n log2 n
// formula regardless of how the host kernel is implemented; only host
// wall-time changes when this file gets faster.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "util/aligned.hpp"

namespace agcm::fft {

using Complex = std::complex<double>;

/// Twiddle/scratch storage aligned to a cache line so no table ever
/// straddles a line boundary.
using AlignedComplexVec =
    std::vector<Complex, util::AlignedAllocator<Complex, 64>>;

/// Precomputed plan for a fixed transform length.
///
/// Thread-safety: the plan is immutable and every transform entry point is
/// const, so concurrent transforms on one shared instance are safe for any
/// length (tests/test_fft.cpp, SharedPlanConcurrentTransformsBitIdentical).
class FftPlan {
 public:
  explicit FftPlan(int n);

  int size() const { return n_; }

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2*pi*i*j*k/n).
  void forward(std::span<Complex> data) const;

  /// In-place inverse DFT including the 1/n normalisation.
  void inverse(std::span<Complex> data) const;

  /// Forward transform of a real line; returns the full complex spectrum
  /// (length n, conjugate-symmetric). Allocates its result — prefer the
  /// span overload (or the filter layer's batched path) on hot paths.
  std::vector<Complex> forward_real(std::span<const double> line) const;

  /// Allocation-free overload: writes the full spectrum into `spectrum`
  /// (length n).
  void forward_real(std::span<const double> line,
                    std::span<Complex> spectrum) const;

  /// Inverse of forward_real: takes a conjugate-symmetric spectrum and
  /// writes the real signal into `line` (imaginary residue discarded).
  /// Destroys `spectrum`. Allocation-free.
  void inverse_to_real(std::span<Complex> spectrum,
                       std::span<double> line) const;

  /// Two-for-one real transform: both real lines in a *single* complex FFT
  /// (pack z = x + i y, then split by conjugate symmetry). Writes the two
  /// full spectra into `sx` and `sy` (length n each). The pack and the
  /// split run in place inside `sx`, so the call is allocation-free.
  void forward_real_pair(std::span<const double> x, std::span<const double> y,
                         std::span<Complex> sx, std::span<Complex> sy) const;

  /// Inverse of forward_real_pair: one complex inverse transform recovers
  /// both real lines. Needs one length-n complex merge buffer, borrowed
  /// from the rank's FftWorkspace (allocation-free after warm-up).
  void inverse_to_real_pair(std::span<const Complex> sx,
                            std::span<const Complex> sy, std::span<double> x,
                            std::span<double> y) const;

  /// Approximate flop count of one complex transform (for the virtual
  /// clock): 5 n log2 n, the standard accounting. FROZEN — the paper's
  /// Tables 8-11 figures depend on it; host-side optimisation must never
  /// change this formula.
  double flops() const;

  /// Number of butterfly stages in the compiled plan (diagnostics/tests).
  int stage_count() const { return static_cast<int>(stages_.size()); }

  /// The radix sequence the plan executes, smallest sub-transforms first
  /// (diagnostics/tests).
  std::vector<int> stage_radices() const;

 private:
  /// One butterfly pass. Sub-transforms of length `m` are combined into
  /// blocks of length `radix * m`; `tw_off` indexes the per-stage twiddle
  /// table (layout tw[q * (radix-1) + (i-1)] = w_L^{q i}, L = radix * m);
  /// `root_off` indexes the generic-radix root table (w_radix^j), unused by
  /// the unrolled radices.
  struct Stage {
    int radix;
    int m;
    std::size_t tw_off;
    std::size_t root_off;
  };

  template <bool kInverse>
  void run_stages(Complex* a) const;
  void apply_permutation(Complex* a) const;

  int n_;
  std::vector<Stage> stages_;       ///< execution order (m == 1 first)
  AlignedComplexVec tw_fwd_;        ///< per-stage twiddles, forward
  AlignedComplexVec tw_inv_;        ///< per-stage twiddles, conjugated
  AlignedComplexVec root_fwd_;      ///< generic-radix roots, forward
  AlignedComplexVec root_inv_;      ///< generic-radix roots, conjugated
  std::vector<int> perm_swaps_;     ///< digit-reversal as (a,b) swap pairs
};

/// Prime factorisation helper (ascending, with multiplicity).
std::vector<int> prime_factors(int n);

}  // namespace agcm::fft
