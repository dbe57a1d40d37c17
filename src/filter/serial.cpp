#include "filter/serial.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fft/workspace.hpp"
#include "singlenode/miniblas.hpp"
#include "util/error.hpp"

namespace agcm::filter {

namespace {

/// Filters one real line held in the packed buffer z (imaginary part zero):
/// forward transform, spectral multiply, inverse, write the real part back.
void filter_single_core(const fft::FftPlan& plan, std::span<double> line,
                        std::span<const double> s_line,
                        std::span<fft::Complex> z) {
  const int n = plan.size();
  for (int i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(i)] = {line[static_cast<std::size_t>(i)], 0.0};
  }
  plan.forward(z);
  for (int k = 0; k < n; ++k) {
    z[static_cast<std::size_t>(k)] *= s_line[static_cast<std::size_t>(k)];
  }
  plan.inverse(z);
  for (int i = 0; i < n; ++i) {
    line[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)].real();
  }
}

/// Two-for-one core: packs z = a + i b, transforms once, applies both
/// responses *inside the packed spectrum*, transforms back, unpacks.
///
/// With X[k] = (Z[k] + conj(Z[n-k]))/2 and Y[k] = -i (Z[k] - conj(Z[n-k]))/2
/// the filtered pack is
///   Z'[k] = s_a[k] X[k] + i s_b[k] Y[k]
///         = (s_a[k]+s_b[k])/2 * Z[k] + (s_a[k]-s_b[k])/2 * conj(Z[n-k]),
/// so no per-line spectrum buffers are ever materialised. When both lines
/// share one response table row (s_a.data() == s_b.data()) the difference
/// term vanishes *exactly* and the multiply collapses to Z'[k] = s[k] Z[k].
void filter_pair_core(const fft::FftPlan& plan, std::span<double> a,
                      std::span<double> b, std::span<const double> s_a,
                      std::span<const double> s_b,
                      std::span<fft::Complex> z) {
  const int n = plan.size();
  for (int i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(i)] = {a[static_cast<std::size_t>(i)],
                                      b[static_cast<std::size_t>(i)]};
  }
  plan.forward(z);
  if (s_a.data() == s_b.data()) {
    for (int k = 0; k < n; ++k) {
      z[static_cast<std::size_t>(k)] *= s_a[static_cast<std::size_t>(k)];
    }
  } else {
    // k = 0 pairs with itself; so does k = n/2 when n is even (the loop
    // below visits it once with k == n-k, temporaries read before writes).
    {
      const fft::Complex z0 = z[0];
      const double ha = 0.5 * (s_a[0] + s_b[0]);
      const double hb = 0.5 * (s_a[0] - s_b[0]);
      z[0] = ha * z0 + hb * std::conj(z0);
    }
    for (int k = 1; n - k >= k; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      const auto unk = static_cast<std::size_t>(n - k);
      const fft::Complex zk = z[uk];
      const fft::Complex znk = z[unk];
      const double ha_k = 0.5 * (s_a[uk] + s_b[uk]);
      const double hb_k = 0.5 * (s_a[uk] - s_b[uk]);
      const double ha_nk = 0.5 * (s_a[unk] + s_b[unk]);
      const double hb_nk = 0.5 * (s_a[unk] - s_b[unk]);
      z[uk] = ha_k * zk + hb_k * std::conj(znk);
      z[unk] = ha_nk * znk + hb_nk * std::conj(zk);
    }
  }
  plan.inverse(z);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    a[ui] = z[ui].real();
    b[ui] = z[ui].imag();
  }
}

}  // namespace

void filter_line_fft(const fft::FftPlan& plan, std::span<double> line,
                     std::span<const double> s_line) {
  AGCM_ASSERT(line.size() == s_line.size());
  AGCM_ASSERT(static_cast<int>(line.size()) == plan.size());
  std::span<fft::Complex> z =
      util::rank_local<fft::FftWorkspace>().complex.take(line.size());
  filter_single_core(plan, line, s_line, z);
}

void filter_line_pair_fft(const fft::FftPlan& plan, std::span<double> line_a,
                          std::span<double> line_b,
                          std::span<const double> s_a,
                          std::span<const double> s_b) {
  const auto n = static_cast<std::size_t>(plan.size());
  AGCM_ASSERT(line_a.size() == n && line_b.size() == n);
  AGCM_ASSERT(s_a.size() == n && s_b.size() == n);
  std::span<fft::Complex> z =
      util::rank_local<fft::FftWorkspace>().complex.take(n);
  filter_pair_core(plan, line_a, line_b, s_a, s_b, z);
}

int filter_lines_fft(const fft::FftPlan& plan, const FilterBank& bank,
                     std::span<const LineKey> lines,
                     std::span<double> data) {
  const auto n = static_cast<std::size_t>(plan.size());
  const std::size_t count = lines.size();
  AGCM_ASSERT(data.size() == count * n);
  if (count == 0) return 0;
  auto& ws = util::rank_local<fft::FftWorkspace>();

  // Pair-packing order: greedily match each line with the first still
  // unpaired line sharing its response table row (pointer identity — one
  // row per (kind, latitude), shared by all layers and variables of that
  // kind). Leftovers pair across responses; a final odd line runs single.
  // The schedule is deterministic and performs exactly floor(count/2)
  // pair + (count%2) single transforms, matching the frozen virtual-clock
  // accounting of the transpose filter (transpose_filter.cpp).
  std::span<int> scratch = ws.index.take(2 * count);
  int* order = scratch.data();
  int* pending = scratch.data() + count;
  std::size_t nord = 0;
  std::size_t npend = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const LineKey& li = lines[i];
    const double* key = bank.response(li.var, li.j).data();
    std::size_t match = npend;
    for (std::size_t p = 0; p < npend; ++p) {
      const LineKey& lp = lines[static_cast<std::size_t>(pending[p])];
      if (bank.response(lp.var, lp.j).data() == key) {
        match = p;
        break;
      }
    }
    if (match < npend) {
      order[nord++] = pending[match];
      order[nord++] = static_cast<int>(i);
      pending[match] = pending[--npend];  // swap-remove (deterministic)
    } else {
      pending[npend++] = static_cast<int>(i);
    }
  }
  for (std::size_t p = 0; p < npend; ++p) order[nord++] = pending[p];
  AGCM_ASSERT(nord == count);

  std::span<fft::Complex> z = ws.complex.take(n);
  auto line_at = [&](int idx) {
    return std::span<double>(data.data() + static_cast<std::size_t>(idx) * n,
                             n);
  };
  std::size_t p = 0;
  for (; p + 1 < count; p += 2) {
    const LineKey& la = lines[static_cast<std::size_t>(order[p])];
    const LineKey& lb = lines[static_cast<std::size_t>(order[p + 1])];
    filter_pair_core(plan, line_at(order[p]), line_at(order[p + 1]),
                     bank.response(la.var, la.j), bank.response(lb.var, lb.j),
                     z);
  }
  if (p < count) {
    const LineKey& la = lines[static_cast<std::size_t>(order[p])];
    filter_single_core(plan, line_at(order[p]),
                       bank.response(la.var, la.j), z);
  }
  return static_cast<int>(count / 2);
}

int filter_lines_partition(const FilterBank& bank,
                           std::span<const LineKey> lines,
                           std::span<double> data) {
  const auto n = static_cast<std::size_t>(bank.grid().nlon());
  const std::size_t count = lines.size();
  AGCM_ASSERT(data.size() == count * n);
  if (count == 0) return 0;
  auto& ws = util::rank_local<fft::FftWorkspace>();

  // Same greedy same-row matching as filter_lines_fft, with one
  // difference: a partitioned pair must share the *identical* kernel (one
  // real kernel filters both packed lanes), so leftover lines never
  // cross-pair — they run single. Response-row pointer identity is the
  // row key, exactly as in the FFT batcher.
  std::span<int> scratch = ws.index.take(2 * count);
  int* order = scratch.data();
  int* pending = scratch.data() + count;
  std::size_t npairs = 0;
  std::size_t npend = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const LineKey& li = lines[i];
    const double* key = bank.response(li.var, li.j).data();
    std::size_t match = npend;
    for (std::size_t p = 0; p < npend; ++p) {
      const LineKey& lp = lines[static_cast<std::size_t>(pending[p])];
      if (bank.response(lp.var, lp.j).data() == key) {
        match = p;
        break;
      }
    }
    if (match < npend) {
      order[2 * npairs] = pending[match];
      order[2 * npairs + 1] = static_cast<int>(i);
      ++npairs;
      pending[match] = pending[--npend];  // swap-remove (deterministic)
    } else {
      pending[npend++] = static_cast<int>(i);
    }
  }
  for (std::size_t p = 0; p < npend; ++p) order[2 * npairs + p] = pending[p];
  AGCM_ASSERT(2 * npairs + npend == count);

  auto line_at = [&](int idx) {
    return std::span<double>(data.data() + static_cast<std::size_t>(idx) * n,
                             n);
  };
  for (std::size_t p = 0; p < npairs; ++p) {
    const LineKey& la = lines[static_cast<std::size_t>(order[2 * p])];
    filter_line_pair_partition(bank.partition(la.var, la.j),
                               line_at(order[2 * p]),
                               line_at(order[2 * p + 1]));
  }
  for (std::size_t s = 2 * npairs; s < count; ++s) {
    const LineKey& la = lines[static_cast<std::size_t>(order[s])];
    filter_line_partition(bank.partition(la.var, la.j), line_at(order[s]));
  }
  return static_cast<int>(npairs);
}

void filter_line_convolution(std::span<double> line,
                             std::span<const double> kernel) {
  AGCM_ASSERT(line.size() == kernel.size());
  const auto n = static_cast<int>(line.size());
  std::vector<double> out(line.size(), 0.0);
  filter_chunk_convolution(line, kernel, 0, n, out);
  std::copy(out.begin(), out.end(), line.begin());
}

void filter_chunk_convolution(std::span<const double> line,
                              std::span<const double> kernel, int out_begin,
                              int out_count, std::span<double> out) {
  AGCM_ASSERT(line.size() == kernel.size());
  AGCM_ASSERT(static_cast<int>(out.size()) == out_count);
  const auto n = static_cast<int>(line.size());
  // Periodic convolution out[i] = sum_s kernel[s] * line[(i - s) mod n],
  // split at the wrap point into two branch-free strided dot products:
  //   s in [0, i]:       line index i - s     walks i .. 0      (stride -1)
  //   s in [i+1, n-1]:   line index i - s + n walks n-1 .. i+1  (stride -1)
  // ddot_strided keeps one sequential accumulator and accepts a carried-in
  // partial sum, so chaining the two calls adds the very same products in
  // the very same order as the historical branchy loop — bitwise identical
  // (tests/test_filter.cpp).
  const double* kern = kernel.data();
  const double* ln = line.data();
  for (int c = 0; c < out_count; ++c) {
    const int i = out_begin + c;
    double acc = singlenode::ddot_strided(static_cast<std::size_t>(i) + 1,
                                          kern, 1, ln + i, -1, 0.0);
    acc = singlenode::ddot_strided(static_cast<std::size_t>(n - 1 - i),
                                   kern + i + 1, 1, ln + (n - 1), -1, acc);
    out[static_cast<std::size_t>(c)] = acc;
  }
}

double fft_filter_flops(int n) {
  // forward + inverse real transforms (~5 n log2 n each at the accounting
  // level used throughout) plus the spectral multiply.
  const double nn = n;
  return 2.0 * 5.0 * nn * std::log2(std::max(2.0, nn)) + 2.0 * nn;
}

// Convolution cost accounting: the paper's equation (2) sums only
// M = N/2 wavenumber terms per output point (the kernel's half-spectrum
// form), i.e. ~N^2 flops per line rather than the 2N^2 of a full-circle
// multiply-add sum. The implementation here computes the exact full-circle
// equivalent for bit-comparable results, but the virtual clock charges the
// original formulation's arithmetic.
double fft_filter_pair_flops(int n) {
  // One forward + one inverse complex transform covers both lines; add the
  // split/merge passes and the two spectral multiplies.
  const double nn = n;
  return 2.0 * 5.0 * nn * std::log2(std::max(2.0, nn)) + 8.0 * nn;
}

double convolution_filter_flops(int n) {
  return static_cast<double>(n) * n + 4.0 * n;
}

double convolution_chunk_flops(int n, int out_count) {
  return static_cast<double>(n) * out_count + 2.0 * out_count;
}

}  // namespace agcm::filter
