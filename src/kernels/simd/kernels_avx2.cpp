// AVX2 tier (4 doubles per vector).
//
// Compiled with -mavx2 -ffp-contract=off (src/kernels/simd/CMakeLists.txt).
// The contract pin matters: -mavx2 implies nothing about FMA, but a
// compiler told the target has FMA (e.g. via a wider -march) would happily
// contract even *intrinsic* mul+add sequences into fused ops, breaking the
// bitwise contract against the scalar tier. With plain mul/add/sub/div
// only — never an FMA — every kernel below performs the seed's exact IEEE
// operations per lane. Tails run the same scalar expressions (also
// uncontracted in this TU).
#include "kernels/simd/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

namespace agcm::simd::detail {

namespace {

void flux_row(int n, double scale, const double* vel, const double* h,
              const double* hn, double* out) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d scl = _mm256_set1_pd(scale);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(vel + i);
    const __m256d hs =
        _mm256_add_pd(_mm256_loadu_pd(h + i), _mm256_loadu_pd(hn + i));
    _mm256_storeu_pd(
        out + i,
        _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(v, half), hs), scl));
  }
  for (; i < n; ++i) out[i] = vel[i] * 0.5 * (h[i] + hn[i]) * scale;
}

void advect_update_row(int ni, double dt_inv_area, const double* fxr,
                       const double* fyr, const double* fys, const double* cr,
                       const double* cs, const double* cn, const double* hor,
                       const double* hnr, double* up) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vdt = _mm256_set1_pd(dt_inv_area);
  int i = 0;
  for (; i + 4 <= ni; i += 4) {
    const __m256d fe = _mm256_loadu_pd(fxr + i);
    const __m256d fw = _mm256_loadu_pd(fxr + i - 1);
    const __m256d fn = _mm256_loadu_pd(fyr + i);
    const __m256d fs = _mm256_loadu_pd(fys + i);
    const __m256d c0 = _mm256_loadu_pd(cr + i);
    const __m256d cp = _mm256_loadu_pd(cr + i + 1);
    const __m256d cm = _mm256_loadu_pd(cr + i - 1);
    const __m256d cnv = _mm256_loadu_pd(cn + i);
    const __m256d csv = _mm256_loadu_pd(cs + i);
    // blendv picks its SECOND operand where the mask is set, so the
    // upwind select `f >= 0 ? a : b` is blendv(b, a, f >= 0).
    const __m256d me = _mm256_cmp_pd(fe, zero, _CMP_GE_OQ);
    const __m256d mw = _mm256_cmp_pd(fw, zero, _CMP_GE_OQ);
    const __m256d mn = _mm256_cmp_pd(fn, zero, _CMP_GE_OQ);
    const __m256d ms = _mm256_cmp_pd(fs, zero, _CMP_GE_OQ);
    const __m256d flux_e = _mm256_mul_pd(fe, _mm256_blendv_pd(cp, c0, me));
    const __m256d flux_w = _mm256_mul_pd(fw, _mm256_blendv_pd(c0, cm, mw));
    const __m256d flux_n = _mm256_mul_pd(fn, _mm256_blendv_pd(cnv, c0, mn));
    const __m256d flux_s = _mm256_mul_pd(fs, _mm256_blendv_pd(c0, csv, ms));
    const __m256d net = _mm256_sub_pd(
        _mm256_add_pd(_mm256_sub_pd(flux_e, flux_w), flux_n), flux_s);
    const __m256d ch =
        _mm256_sub_pd(_mm256_mul_pd(c0, _mm256_loadu_pd(hor + i)),
                      _mm256_mul_pd(vdt, net));
    _mm256_storeu_pd(up + i, _mm256_div_pd(ch, _mm256_loadu_pd(hnr + i)));
  }
  for (; i < ni; ++i) {
    const double fe = fxr[i];
    const double fw = fxr[i - 1];
    const double fn = fyr[i];
    const double fs = fys[i];
    const double flux_e = fe * (fe >= 0.0 ? cr[i] : cr[i + 1]);
    const double flux_w = fw * (fw >= 0.0 ? cr[i - 1] : cr[i]);
    const double flux_n = fn * (fn >= 0.0 ? cr[i] : cn[i]);
    const double flux_s = fs * (fs >= 0.0 ? cs[i] : cr[i]);
    const double ch = cr[i] * hor[i] -
                      dt_inv_area * (flux_e - flux_w + flux_n - flux_s);
    up[i] = ch / hnr[i];
  }
}

void stencil7_interior(int n, const double* f, const double* fjp,
                       const double* fjm, const double* fkp,
                       const double* fkm, double* out) {
  const __m256d six = _mm256_set1_pd(6.0);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s = _mm256_add_pd(_mm256_loadu_pd(f + i + 1),
                              _mm256_loadu_pd(f + i - 1));
    s = _mm256_add_pd(s, _mm256_loadu_pd(fjp + i));
    s = _mm256_add_pd(s, _mm256_loadu_pd(fjm + i));
    s = _mm256_add_pd(s, _mm256_loadu_pd(fkp + i));
    s = _mm256_add_pd(s, _mm256_loadu_pd(fkm + i));
    s = _mm256_sub_pd(s, _mm256_mul_pd(six, _mm256_loadu_pd(f + i)));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), s));
  }
  for (; i < n; ++i)
    out[i] += f[i + 1] + f[i - 1] + fjp[i] + fjm[i] + fkp[i] + fkm[i] -
              6.0 * f[i];
}

void pointwise_panel(std::size_t m, const double* a, const double* b,
                     double* out) {
  std::size_t q = 0;
  for (; q + 8 <= m; q += 8) {
    _mm256_storeu_pd(out + q, _mm256_mul_pd(_mm256_loadu_pd(a + q),
                                            _mm256_loadu_pd(b + q)));
    _mm256_storeu_pd(out + q + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(a + q + 4),
                                   _mm256_loadu_pd(b + q + 4)));
  }
  for (; q + 4 <= m; q += 4)
    _mm256_storeu_pd(out + q, _mm256_mul_pd(_mm256_loadu_pd(a + q),
                                            _mm256_loadu_pd(b + q)));
  for (; q < m; ++q) out[q] = a[q] * b[q];
}

void daxpy(std::size_t n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// V vectors of outputs, `live` of them real (4V - 4 < live <= 4V), each
/// lane one output whose accumulator stays in a register across all m
/// sources. The last vector's dead lanes are masked off on every load, and
/// its live lanes are stored one by one, so nothing past kext's
/// n + width - 1 entries or dst's `live` is touched.
template <int V>
void conv_block(std::size_t live, std::size_t m, std::size_t n,
                std::size_t lag0, const double* kext, const double* src,
                double* dst) {
  const std::size_t tail = live - 4 * (V - 1);  // 1..4
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(tail)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc[V];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_pd();
  std::size_t b = lag0;
  for (std::size_t g = 0; g < m; ++g) {
    const __m256d s = _mm256_set1_pd(src[g]);
    const double* k = kext + b;
#pragma GCC unroll 8
    for (int v = 0; v + 1 < V; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(_mm256_loadu_pd(k + 4 * v), s));
    }
    acc[V - 1] = _mm256_add_pd(
        acc[V - 1],
        _mm256_mul_pd(_mm256_maskload_pd(k + 4 * (V - 1), mask), s));
    b = (b == 0 ? n : b) - 1;
  }
#pragma GCC unroll 8
  for (int v = 0; v + 1 < V; ++v) {
    _mm256_storeu_pd(dst + 4 * v,
                     _mm256_add_pd(_mm256_loadu_pd(dst + 4 * v), acc[v]));
  }
  alignas(32) double last[4];
  _mm256_store_pd(last, acc[V - 1]);
  for (std::size_t l = 0; l < tail; ++l) dst[4 * (V - 1) + l] += last[l];
}

/// The scalar tier's loop nest (kernels_scalar.cpp) with 4 outputs per
/// vector, in blocks of at most 8 vectors, as equal as they can be: lanes
/// are different outputs, so each output's adds keep their order.
void conv_chunk(std::size_t width, std::size_t m, std::size_t n,
                std::size_t lag0, const double* kext, const double* src,
                double* dst) {
  constexpr std::size_t kMaxVectors = 8;
  std::size_t vectors = (width + 3) / 4;
  for (std::size_t c = 0; vectors > 0;) {
    const std::size_t blocks = (vectors + kMaxVectors - 1) / kMaxVectors;
    const std::size_t nv = (vectors + blocks - 1) / blocks;
    const std::size_t live = std::min(width - c, 4 * nv);
    const double* k = kext + c;
    double* d = dst + c;
    switch (nv) {
      case 1: conv_block<1>(live, m, n, lag0, k, src, d); break;
      case 2: conv_block<2>(live, m, n, lag0, k, src, d); break;
      case 3: conv_block<3>(live, m, n, lag0, k, src, d); break;
      case 4: conv_block<4>(live, m, n, lag0, k, src, d); break;
      case 5: conv_block<5>(live, m, n, lag0, k, src, d); break;
      case 6: conv_block<6>(live, m, n, lag0, k, src, d); break;
      case 7: conv_block<7>(live, m, n, lag0, k, src, d); break;
      default: conv_block<8>(live, m, n, lag0, k, src, d); break;
    }
    c += live;
    vectors -= nv;
  }
}

// ---- column physics across lanes -----------------------------------------
//
// A lane is one column: the scalar tier's lane loops (kernels_scalar.cpp)
// with 4 columns per vector, in blocks of at most kColumnVectors vectors,
// as equal as they can be. The last vector of a block masks its dead lanes
// off on every load and store, so the panel is touched only at `lanes`
// columns per level, and dead lanes compute on zeros.

constexpr std::size_t kColumnVectors = 4;

/// Vector v of a level row: the last one of the block masked to `tail`.
template <int V>
inline __m256d load_lanes(const double* row, int v, __m256i tail) {
  return v + 1 < V ? _mm256_loadu_pd(row + 4 * v)
                   : _mm256_maskload_pd(row + 4 * v, tail);
}

template <int V>
inline void store_lanes(double* row, int v, __m256i tail, __m256d x) {
  if (v + 1 < V) {
    _mm256_storeu_pd(row + 4 * v, x);
  } else {
    _mm256_maskstore_pd(row + 4 * v, tail, x);
  }
}

/// Lanes [0, live - 4 (V - 1)) of the block's last vector.
template <int V>
inline __m256i tail_mask(std::size_t live) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(live - 4 * (V - 1))),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

template <int V>
void longwave_block(int nlev, std::size_t live, std::size_t stride,
                    const double* emis, double dt_sec, double* p) {
  const __m256i tail = tail_mask<V>(live);
  const __m256d dt = _mm256_set1_pd(dt_sec);
  const __m256d cooling = _mm256_set1_pd(0.8);
  const __m256d day = _mm256_set1_pd(86400.0);
  for (int k1 = 0; k1 < nlev; ++k1) {
    double* r1 = p + static_cast<std::size_t>(k1) * stride;
    __m256d t1[V], acc[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      t1[v] = load_lanes<V>(r1, v, tail);
      acc[v] = _mm256_setzero_pd();
    }
    const auto exchange = [&](int k2, double e_k) {
      const double* r2 = p + static_cast<std::size_t>(k2) * stride;
      const __m256d e = _mm256_set1_pd(e_k);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        const __m256d diff = _mm256_sub_pd(load_lanes<V>(r2, v, tail), t1[v]);
        acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(e, diff));
      }
    };
    for (int k2 = 0; k2 < k1; ++k2) exchange(k2, emis[k1 - k2]);
    for (int k2 = k1 + 1; k2 < nlev; ++k2) exchange(k2, emis[k2 - k1]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      const __m256d heat =
          _mm256_div_pd(_mm256_mul_pd(dt, _mm256_sub_pd(acc[v], cooling)), day);
      store_lanes<V>(r1, v, tail, _mm256_add_pd(t1[v], heat));
    }
  }
}

template <int V>
void thomas_block(int nlev, std::size_t live, std::size_t stride,
                  const double* a, const double* cp, const double* denom,
                  double* p) {
  const __m256i tail = tail_mask<V>(live);
  __m256d x[V];  // level k's solution, carried to level k +- 1
  const __m256d d0 = _mm256_set1_pd(denom[0]);
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) {
    x[v] = _mm256_div_pd(load_lanes<V>(p, v, tail), d0);
    store_lanes<V>(p, v, tail, x[v]);
  }
  for (int k = 1; k < nlev; ++k) {
    double* r = p + static_cast<std::size_t>(k) * stride;
    const __m256d ak = _mm256_set1_pd(a[k]);
    const __m256d dk = _mm256_set1_pd(denom[k]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      x[v] = _mm256_div_pd(
          _mm256_sub_pd(load_lanes<V>(r, v, tail), _mm256_mul_pd(ak, x[v])),
          dk);
      store_lanes<V>(r, v, tail, x[v]);
    }
  }
  for (int k = nlev - 1; k-- > 0;) {
    double* r = p + static_cast<std::size_t>(k) * stride;
    const __m256d ck = _mm256_set1_pd(cp[k]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      x[v] = _mm256_sub_pd(load_lanes<V>(r, v, tail), _mm256_mul_pd(ck, x[v]));
      store_lanes<V>(r, v, tail, x[v]);
    }
  }
}

/// Splits `lanes` into blocks of at most kColumnVectors vectors and runs
/// `block<V>(live, p + first lane)` on each.
template <class Block>
void for_each_lane_block(std::size_t lanes, double* panel, Block block) {
  std::size_t vectors = (lanes + 3) / 4;
  for (std::size_t c = 0; vectors > 0;) {
    const std::size_t blocks = (vectors + kColumnVectors - 1) / kColumnVectors;
    const std::size_t nv = (vectors + blocks - 1) / blocks;
    const std::size_t live = std::min(lanes - c, 4 * nv);
    switch (nv) {
      case 1: block(std::integral_constant<int, 1>{}, live, panel + c); break;
      case 2: block(std::integral_constant<int, 2>{}, live, panel + c); break;
      case 3: block(std::integral_constant<int, 3>{}, live, panel + c); break;
      default: block(std::integral_constant<int, 4>{}, live, panel + c); break;
    }
    c += live;
    vectors -= nv;
  }
}

void longwave_lanes(int nlev, std::size_t lanes, std::size_t stride,
                    const double* emis, double dt_sec, double* panel) {
  for_each_lane_block(lanes, panel, [&](auto v, std::size_t live, double* p) {
    longwave_block<decltype(v)::value>(nlev, live, stride, emis, dt_sec, p);
  });
}

void thomas_lanes(int nlev, std::size_t lanes, std::size_t stride,
                  const double* a, const double* cp, const double* denom,
                  double* panel) {
  for_each_lane_block(lanes, panel, [&](auto v, std::size_t live, double* p) {
    thomas_block<decltype(v)::value>(nlev, live, stride, a, cp, denom, p);
  });
}

}  // namespace

const KernelOps* avx2_ops() {
  static const KernelOps ops{flux_row,        advect_update_row,
                             stencil7_interior, pointwise_panel,
                             daxpy,           conv_chunk,
                             longwave_lanes,  thomas_lanes,
                             4 * kColumnVectors};
  return &ops;
}

}  // namespace agcm::simd::detail

#else  // !__AVX2__

namespace agcm::simd::detail {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace agcm::simd::detail

#endif
