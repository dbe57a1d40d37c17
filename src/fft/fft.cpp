#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "fft/workspace.hpp"
#include "util/error.hpp"

namespace agcm::fft {

namespace {

inline Complex unit_root(double numerator, double denominator) {
  const double angle = -2.0 * std::numbers::pi * numerator / denominator;
  return {std::cos(angle), std::sin(angle)};
}

/// Multiplies by +i.
inline Complex mul_i(const Complex& c) { return {-c.imag(), c.real()}; }

}  // namespace

std::vector<int> prime_factors(int n) {
  AGCM_ASSERT(n >= 1);
  std::vector<int> factors;
  for (int p = 2; p * p <= n; p == 2 ? p = 3 : p += 2) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  if (n > 1) factors.push_back(n);
  return factors;
}

FftPlan::FftPlan(int n) : n_(n) {
  check_config(n >= 1, "FFT length must be >= 1");

  // --- Radix schedule -----------------------------------------------------
  // Pairs of 2s fuse into radix-4 stages (fewer passes over the data, and
  // the radix-4 butterfly needs no real multiplications beyond the
  // twiddles). Execution order runs the largest radices at the smallest
  // sub-transform size; any order is mathematically valid as long as the
  // digit-reversal permutation below is derived from the same sequence.
  const std::vector<int> primes = prime_factors(n);
  std::vector<int> radices;
  int twos = 0;
  for (int p : primes) {
    if (p == 2) {
      ++twos;
    } else {
      radices.push_back(p);
    }
  }
  for (int t = 0; t < twos / 2; ++t) radices.push_back(4);
  if (twos % 2 != 0) radices.push_back(2);
  std::sort(radices.begin(), radices.end(), std::greater<int>());

  // --- Digit-reversal permutation ----------------------------------------
  // The decimation-in-time recursion splits by the radices in *reverse*
  // execution order (outermost split first); the iterative form needs the
  // inputs pre-permuted by the corresponding mixed-radix digit reversal.
  const std::vector<int> split(radices.rbegin(), radices.rend());
  const auto un = static_cast<std::size_t>(n);
  std::vector<int> dest(un);  // dest[j] = digit-reversed position of input j
  for (int j = 0; j < n; ++j) {
    int tmp = j;
    int p = 0;
    for (int r : split) {
      p = p * r + tmp % r;
      tmp /= r;
    }
    dest[static_cast<std::size_t>(j)] = p;
  }
  // Flatten the permutation into a swap program so it can be applied
  // in place with zero scratch: walking the swaps left-to-right moves
  // every element to its digit-reversed slot.
  std::vector<int> src(un);  // src[pos] = input index that must end at pos
  for (int j = 0; j < n; ++j) src[static_cast<std::size_t>(dest[static_cast<std::size_t>(j)])] = j;
  std::vector<int> cur(un), loc(un);  // cur[pos] = input now at pos; inverse
  std::iota(cur.begin(), cur.end(), 0);
  std::iota(loc.begin(), loc.end(), 0);
  for (int pos = 0; pos < n; ++pos) {
    const int want = src[static_cast<std::size_t>(pos)];
    if (cur[static_cast<std::size_t>(pos)] == want) continue;
    const int where = loc[static_cast<std::size_t>(want)];
    perm_swaps_.push_back(pos);
    perm_swaps_.push_back(where);
    std::swap(cur[static_cast<std::size_t>(pos)],
              cur[static_cast<std::size_t>(where)]);
    loc[static_cast<std::size_t>(cur[static_cast<std::size_t>(pos)])] = pos;
    loc[static_cast<std::size_t>(cur[static_cast<std::size_t>(where)])] = where;
  }

  // --- Stage plan: per-stage twiddle tables + generic-radix roots --------
  int m = 1;
  for (int r : radices) {
    Stage st{r, m, tw_fwd_.size(), 0};
    const int L = r * m;
    for (int q = 0; q < m; ++q) {
      for (int i = 1; i < r; ++i) {
        tw_fwd_.push_back(unit_root(static_cast<double>(q) * i, L));
      }
    }
    if (r != 2 && r != 3 && r != 4 && r != 5) {
      st.root_off = root_fwd_.size();
      for (int j = 0; j < r; ++j) {
        root_fwd_.push_back(unit_root(j, r));
      }
    }
    stages_.push_back(st);
    m = L;
  }
  AGCM_ASSERT(m == n_);

  tw_inv_.resize(tw_fwd_.size());
  std::transform(tw_fwd_.begin(), tw_fwd_.end(), tw_inv_.begin(),
                 [](const Complex& c) { return std::conj(c); });
  root_inv_.resize(root_fwd_.size());
  std::transform(root_fwd_.begin(), root_fwd_.end(), root_inv_.begin(),
                 [](const Complex& c) { return std::conj(c); });
}

std::vector<int> FftPlan::stage_radices() const {
  std::vector<int> out;
  out.reserve(stages_.size());
  for (const Stage& st : stages_) out.push_back(st.radix);
  return out;
}

void FftPlan::apply_permutation(Complex* a) const {
  for (std::size_t s = 0; s < perm_swaps_.size(); s += 2) {
    std::swap(a[perm_swaps_[s]], a[perm_swaps_[s + 1]]);
  }
}

template <bool kInverse>
void FftPlan::run_stages(Complex* a) const {
  const Complex* tw_base = (kInverse ? tw_inv_ : tw_fwd_).data();
  const Complex* root_base = (kInverse ? root_inv_ : root_fwd_).data();
  for (const Stage& st : stages_) {
    const int m = st.m;
    const int r = st.radix;
    const int L = r * m;
    const Complex* tw = tw_base + st.tw_off;
    switch (r) {
      case 2: {
        for (int b = 0; b < n_; b += L) {
          Complex* p0 = a + b;
          Complex* p1 = p0 + m;
          for (int q = 0; q < m; ++q) {
            const Complex u = p0[q];
            const Complex t = p1[q] * tw[q];
            p0[q] = u + t;
            p1[q] = u - t;
          }
        }
        break;
      }
      case 3: {
        // y1/y2 = (x0 - (x1+x2)/2) +- i*s*(x1-x2), s = -sin(60deg) fwd.
        constexpr double kSin60 = 0.86602540378443864676;
        const double s = kInverse ? kSin60 : -kSin60;
        for (int b = 0; b < n_; b += L) {
          Complex* p0 = a + b;
          Complex* p1 = p0 + m;
          Complex* p2 = p1 + m;
          for (int q = 0; q < m; ++q) {
            const Complex x0 = p0[q];
            const Complex x1 = p1[q] * tw[2 * q];
            const Complex x2 = p2[q] * tw[2 * q + 1];
            const Complex t1 = x1 + x2;
            const Complex t2 = x0 - 0.5 * t1;
            const Complex d = x1 - x2;
            const Complex t3(-s * d.imag(), s * d.real());
            p0[q] = x0 + t1;
            p1[q] = t2 + t3;
            p2[q] = t2 - t3;
          }
        }
        break;
      }
      case 4: {
        for (int b = 0; b < n_; b += L) {
          Complex* p0 = a + b;
          Complex* p1 = p0 + m;
          Complex* p2 = p1 + m;
          Complex* p3 = p2 + m;
          for (int q = 0; q < m; ++q) {
            const Complex x0 = p0[q];
            const Complex x1 = p1[q] * tw[3 * q];
            const Complex x2 = p2[q] * tw[3 * q + 1];
            const Complex x3 = p3[q] * tw[3 * q + 2];
            const Complex t0 = x0 + x2;
            const Complex t1 = x0 - x2;
            const Complex t2 = x1 + x3;
            const Complex d = x1 - x3;
            // forward: -i*d; inverse: +i*d.
            const Complex jd = kInverse ? mul_i(d) : Complex(d.imag(), -d.real());
            p0[q] = t0 + t2;
            p1[q] = t1 + jd;
            p2[q] = t0 - t2;
            p3[q] = t1 - jd;
          }
        }
        break;
      }
      case 5: {
        constexpr double kC1 = 0.30901699437494742410;   // cos(2 pi / 5)
        constexpr double kS1 = 0.95105651629515357212;   // sin(2 pi / 5)
        constexpr double kC2 = -0.80901699437494742410;  // cos(4 pi / 5)
        constexpr double kS2 = 0.58778525229247312917;   // sin(4 pi / 5)
        const double sg = kInverse ? 1.0 : -1.0;
        for (int b = 0; b < n_; b += L) {
          Complex* p0 = a + b;
          Complex* p1 = p0 + m;
          Complex* p2 = p1 + m;
          Complex* p3 = p2 + m;
          Complex* p4 = p3 + m;
          for (int q = 0; q < m; ++q) {
            const Complex x0 = p0[q];
            const Complex x1 = p1[q] * tw[4 * q];
            const Complex x2 = p2[q] * tw[4 * q + 1];
            const Complex x3 = p3[q] * tw[4 * q + 2];
            const Complex x4 = p4[q] * tw[4 * q + 3];
            const Complex t1 = x1 + x4;
            const Complex t2 = x2 + x3;
            const Complex t3 = x1 - x4;
            const Complex t4 = x2 - x3;
            const Complex m1 = x0 + kC1 * t1 + kC2 * t2;
            const Complex m2 = x0 + kC2 * t1 + kC1 * t2;
            const Complex u1 = kS1 * t3 + kS2 * t4;
            const Complex u2 = kS2 * t3 - kS1 * t4;
            const Complex iu1 = sg * mul_i(u1);
            const Complex iu2 = sg * mul_i(u2);
            p0[q] = x0 + t1 + t2;
            p1[q] = m1 + iu1;
            p2[q] = m2 + iu2;
            p3[q] = m2 - iu2;
            p4[q] = m1 - iu1;
          }
        }
        break;
      }
      default: {
        // Generic-radix butterfly: gather the r twiddled inputs into the
        // rank's gather buffer (the plan itself stays immutable, so shared
        // plans are safe under concurrent transforms), then a direct
        // r-point DFT against the precomputed root table.
        const Complex* root = root_base + st.root_off;
        Complex* buf = util::rank_local<FftWorkspace>()
                           .gather.take(static_cast<std::size_t>(r))
                           .data();
        for (int b = 0; b < n_; b += L) {
          for (int q = 0; q < m; ++q) {
            Complex* p = a + b + q;
            buf[0] = p[0];
            const Complex* twq = tw + static_cast<std::ptrdiff_t>(q) * (r - 1);
            for (int i = 1; i < r; ++i) {
              buf[i] = p[static_cast<std::ptrdiff_t>(i) * m] * twq[i - 1];
            }
            for (int k = 0; k < r; ++k) {
              Complex acc = buf[0];
              int idx = 0;
              for (int i = 1; i < r; ++i) {
                idx += k;
                if (idx >= r) idx -= r;
                acc += root[idx] * buf[i];
              }
              p[static_cast<std::ptrdiff_t>(k) * m] = acc;
            }
          }
        }
        break;
      }
    }
  }
}

void FftPlan::forward(std::span<Complex> data) const {
  AGCM_ASSERT(static_cast<int>(data.size()) == n_);
  apply_permutation(data.data());
  run_stages<false>(data.data());
}

void FftPlan::inverse(std::span<Complex> data) const {
  AGCM_ASSERT(static_cast<int>(data.size()) == n_);
  apply_permutation(data.data());
  run_stages<true>(data.data());
  const double scale = 1.0 / n_;
  for (Complex& c : data) c *= scale;
}

std::vector<Complex> FftPlan::forward_real(
    std::span<const double> line) const {
  std::vector<Complex> spectrum(static_cast<std::size_t>(n_));
  forward_real(line, spectrum);
  return spectrum;
}

void FftPlan::forward_real(std::span<const double> line,
                           std::span<Complex> spectrum) const {
  AGCM_ASSERT(static_cast<int>(line.size()) == n_);
  AGCM_ASSERT(static_cast<int>(spectrum.size()) == n_);
  for (int i = 0; i < n_; ++i) {
    spectrum[static_cast<std::size_t>(i)] = {line[static_cast<std::size_t>(i)],
                                             0.0};
  }
  forward(spectrum);
}

void FftPlan::inverse_to_real(std::span<Complex> spectrum,
                              std::span<double> line) const {
  AGCM_ASSERT(static_cast<int>(spectrum.size()) == n_);
  AGCM_ASSERT(static_cast<int>(line.size()) == n_);
  inverse(spectrum);
  for (int i = 0; i < n_; ++i) {
    line[static_cast<std::size_t>(i)] =
        spectrum[static_cast<std::size_t>(i)].real();
  }
}

void FftPlan::forward_real_pair(std::span<const double> x,
                                std::span<const double> y,
                                std::span<Complex> sx,
                                std::span<Complex> sy) const {
  AGCM_ASSERT(static_cast<int>(x.size()) == n_ &&
              static_cast<int>(y.size()) == n_);
  AGCM_ASSERT(static_cast<int>(sx.size()) == n_ &&
              static_cast<int>(sy.size()) == n_);
  // Pack z = x + i y directly into sx and transform in place.
  for (int i = 0; i < n_; ++i) {
    sx[static_cast<std::size_t>(i)] = {x[static_cast<std::size_t>(i)],
                                       y[static_cast<std::size_t>(i)]};
  }
  forward(sx);
  // Split by conjugate symmetry:
  //   X[k] = (Z[k] + conj(Z[n-k])) / 2, Y[k] = -i (Z[k] - conj(Z[n-k])) / 2.
  // Indices k and n-k are processed together so the split can overwrite the
  // packed transform it reads from.
  const Complex z0 = sx[0];
  sx[0] = {z0.real(), 0.0};
  sy[0] = {z0.imag(), 0.0};
  for (int k = 1; n_ - k >= k; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    const auto unk = static_cast<std::size_t>(n_ - k);
    const Complex zk = sx[uk];
    const Complex znk = sx[unk];
    sx[uk] = 0.5 * (zk + std::conj(znk));
    sx[unk] = 0.5 * (znk + std::conj(zk));
    sy[uk] = Complex{0.0, -0.5} * (zk - std::conj(znk));
    sy[unk] = Complex{0.0, -0.5} * (znk - std::conj(zk));
  }
}

void FftPlan::inverse_to_real_pair(std::span<const Complex> sx,
                                   std::span<const Complex> sy,
                                   std::span<double> x,
                                   std::span<double> y) const {
  AGCM_ASSERT(static_cast<int>(sx.size()) == n_ &&
              static_cast<int>(sy.size()) == n_);
  AGCM_ASSERT(static_cast<int>(x.size()) == n_ &&
              static_cast<int>(y.size()) == n_);
  // Merge z = sx + i sy into the rank's complex buffer (allocation-free
  // once it has grown to n), then one inverse recovers both lines.
  std::span<Complex> z = util::rank_local<FftWorkspace>().complex.take(
      static_cast<std::size_t>(n_));
  for (int k = 0; k < n_; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    z[uk] = sx[uk] + mul_i(sy[uk]);
  }
  inverse(z);
  for (int i = 0; i < n_; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    x[ui] = z[ui].real();
    y[ui] = z[ui].imag();
  }
}

double FftPlan::flops() const {
  const double n = n_;
  return 5.0 * n * std::log2(std::max(2.0, n));
}

}  // namespace agcm::fft
