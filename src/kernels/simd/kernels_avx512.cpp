// AVX-512 tier (8 doubles per vector).
//
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off. The
// contract pin is load-bearing here: avx512f implies FMA in the target
// feature set, and without it the compiler contracts even intrinsic
// mul+sub sequences into vfmsub — which changes bits. See kernels_avx2.cpp
// for the full FP-contract story; the same rules apply.
#include "kernels/simd/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

namespace agcm::simd::detail {

namespace {

void flux_row(int n, double scale, const double* vel, const double* h,
              const double* hn, double* out) {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d scl = _mm512_set1_pd(scale);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(vel + i);
    const __m512d hs =
        _mm512_add_pd(_mm512_loadu_pd(h + i), _mm512_loadu_pd(hn + i));
    _mm512_storeu_pd(
        out + i,
        _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(v, half), hs), scl));
  }
  for (; i < n; ++i) out[i] = vel[i] * 0.5 * (h[i] + hn[i]) * scale;
}

void advect_update_row(int ni, double dt_inv_area, const double* fxr,
                       const double* fyr, const double* fys, const double* cr,
                       const double* cs, const double* cn, const double* hor,
                       const double* hnr, double* up) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vdt = _mm512_set1_pd(dt_inv_area);
  int i = 0;
  for (; i + 8 <= ni; i += 8) {
    const __m512d fe = _mm512_loadu_pd(fxr + i);
    const __m512d fw = _mm512_loadu_pd(fxr + i - 1);
    const __m512d fn = _mm512_loadu_pd(fyr + i);
    const __m512d fs = _mm512_loadu_pd(fys + i);
    const __m512d c0 = _mm512_loadu_pd(cr + i);
    const __m512d cp = _mm512_loadu_pd(cr + i + 1);
    const __m512d cm = _mm512_loadu_pd(cr + i - 1);
    const __m512d cnv = _mm512_loadu_pd(cn + i);
    const __m512d csv = _mm512_loadu_pd(cs + i);
    // mask_blend picks its THIRD operand where the mask is set, so the
    // upwind select `f >= 0 ? a : b` is mask_blend(f >= 0, b, a).
    const __mmask8 me = _mm512_cmp_pd_mask(fe, zero, _CMP_GE_OQ);
    const __mmask8 mw = _mm512_cmp_pd_mask(fw, zero, _CMP_GE_OQ);
    const __mmask8 mn = _mm512_cmp_pd_mask(fn, zero, _CMP_GE_OQ);
    const __mmask8 ms = _mm512_cmp_pd_mask(fs, zero, _CMP_GE_OQ);
    const __m512d flux_e =
        _mm512_mul_pd(fe, _mm512_mask_blend_pd(me, cp, c0));
    const __m512d flux_w =
        _mm512_mul_pd(fw, _mm512_mask_blend_pd(mw, c0, cm));
    const __m512d flux_n =
        _mm512_mul_pd(fn, _mm512_mask_blend_pd(mn, cnv, c0));
    const __m512d flux_s =
        _mm512_mul_pd(fs, _mm512_mask_blend_pd(ms, c0, csv));
    const __m512d net = _mm512_sub_pd(
        _mm512_add_pd(_mm512_sub_pd(flux_e, flux_w), flux_n), flux_s);
    const __m512d ch =
        _mm512_sub_pd(_mm512_mul_pd(c0, _mm512_loadu_pd(hor + i)),
                      _mm512_mul_pd(vdt, net));
    _mm512_storeu_pd(up + i, _mm512_div_pd(ch, _mm512_loadu_pd(hnr + i)));
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
  const __m512d six = _mm512_set1_pd(6.0);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d s = _mm512_add_pd(_mm512_loadu_pd(f + i + 1),
                              _mm512_loadu_pd(f + i - 1));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fjp + i));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fjm + i));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fkp + i));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fkm + i));
    s = _mm512_sub_pd(s, _mm512_mul_pd(six, _mm512_loadu_pd(f + i)));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(out + i), s));
  }
  for (; i < n; ++i)
    out[i] += f[i + 1] + f[i - 1] + fjp[i] + fjm[i] + fkp[i] + fkm[i] -
              6.0 * f[i];
}

void pointwise_panel(std::size_t m, const double* a, const double* b,
                     double* out) {
  std::size_t q = 0;
  for (; q + 8 <= m; q += 8)
    _mm512_storeu_pd(out + q, _mm512_mul_pd(_mm512_loadu_pd(a + q),
                                            _mm512_loadu_pd(b + q)));
  for (; q < m; ++q) out[q] = a[q] * b[q];
}

void daxpy(std::size_t n, double alpha, const double* x, double* y) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// V vectors of outputs, `live` of them real (8V - 8 < live <= 8V), each
/// lane one output whose accumulator stays in a register across all m
/// sources. The last vector's dead lanes are masked off on every load and
/// store, so nothing past kext's n + width - 1 entries or dst's `live` is
/// touched.
template <int V>
void conv_block(std::size_t live, std::size_t m, std::size_t n,
                std::size_t lag0, const double* kext, const double* src,
                double* dst) {
  const auto tail =
      static_cast<__mmask8>((1u << (live - 8 * (V - 1))) - 1u);
  __m512d acc[V];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) acc[v] = _mm512_setzero_pd();
  std::size_t b = lag0;
  for (std::size_t g = 0; g < m; ++g) {
    const __m512d s = _mm512_set1_pd(src[g]);
    const double* k = kext + b;
#pragma GCC unroll 8
    for (int v = 0; v + 1 < V; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(_mm512_loadu_pd(k + 8 * v), s));
    }
    acc[V - 1] = _mm512_add_pd(
        acc[V - 1],
        _mm512_mul_pd(_mm512_maskz_loadu_pd(tail, k + 8 * (V - 1)), s));
    b = (b == 0 ? n : b) - 1;
  }
#pragma GCC unroll 8
  for (int v = 0; v + 1 < V; ++v) {
    _mm512_storeu_pd(dst + 8 * v,
                     _mm512_add_pd(_mm512_loadu_pd(dst + 8 * v), acc[v]));
  }
  double* d = dst + 8 * (V - 1);
  _mm512_mask_storeu_pd(
      d, tail, _mm512_add_pd(_mm512_maskz_loadu_pd(tail, d), acc[V - 1]));
}

/// The scalar tier's loop nest (kernels_scalar.cpp) with 8 outputs per
/// vector, in blocks of at most 8 vectors, as equal as they can be: lanes
/// are different outputs, so each output's adds keep their order.
void conv_chunk(std::size_t width, std::size_t m, std::size_t n,
                std::size_t lag0, const double* kext, const double* src,
                double* dst) {
  constexpr std::size_t kMaxVectors = 8;
  std::size_t vectors = (width + 7) / 8;
  for (std::size_t c = 0; vectors > 0;) {
    const std::size_t blocks = (vectors + kMaxVectors - 1) / kMaxVectors;
    const std::size_t nv = (vectors + blocks - 1) / blocks;
    const std::size_t live = std::min(width - c, 8 * nv);
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
// with 8 columns per vector, in blocks of at most kColumnVectors vectors,
// as equal as they can be. The last vector of a block masks its dead lanes
// off on every load and store, so the panel is touched only at `lanes`
// columns per level, and dead lanes compute on zeros.

constexpr std::size_t kColumnVectors = 4;

/// Vector v of a level row: the last one of the block masked to `tail`.
template <int V>
inline __m512d load_lanes(const double* row, int v, __mmask8 tail) {
  return v + 1 < V ? _mm512_loadu_pd(row + 8 * v)
                   : _mm512_maskz_loadu_pd(tail, row + 8 * v);
}

template <int V>
inline void store_lanes(double* row, int v, __mmask8 tail, __m512d x) {
  if (v + 1 < V) {
    _mm512_storeu_pd(row + 8 * v, x);
  } else {
    _mm512_mask_storeu_pd(row + 8 * v, tail, x);
  }
}

template <int V>
void longwave_block(int nlev, std::size_t live, std::size_t stride,
                    const double* emis, double dt_sec, double* p) {
  const auto tail =
      static_cast<__mmask8>((1u << (live - 8 * (V - 1))) - 1u);
  const __m512d dt = _mm512_set1_pd(dt_sec);
  const __m512d cooling = _mm512_set1_pd(0.8);
  const __m512d day = _mm512_set1_pd(86400.0);
  for (int k1 = 0; k1 < nlev; ++k1) {
    double* r1 = p + static_cast<std::size_t>(k1) * stride;
    __m512d t1[V], acc[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      t1[v] = load_lanes<V>(r1, v, tail);
      acc[v] = _mm512_setzero_pd();
    }
    const auto exchange = [&](int k2, double e_k) {
      const double* r2 = p + static_cast<std::size_t>(k2) * stride;
      const __m512d e = _mm512_set1_pd(e_k);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        const __m512d diff = _mm512_sub_pd(load_lanes<V>(r2, v, tail), t1[v]);
        acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(e, diff));
      }
    };
    for (int k2 = 0; k2 < k1; ++k2) exchange(k2, emis[k1 - k2]);
    for (int k2 = k1 + 1; k2 < nlev; ++k2) exchange(k2, emis[k2 - k1]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      const __m512d heat =
          _mm512_div_pd(_mm512_mul_pd(dt, _mm512_sub_pd(acc[v], cooling)), day);
      store_lanes<V>(r1, v, tail, _mm512_add_pd(t1[v], heat));
    }
  }
}

template <int V>
void thomas_block(int nlev, std::size_t live, std::size_t stride,
                  const double* a, const double* cp, const double* denom,
                  double* p) {
  const auto tail =
      static_cast<__mmask8>((1u << (live - 8 * (V - 1))) - 1u);
  __m512d x[V];  // level k's solution, carried to level k +- 1
  const __m512d d0 = _mm512_set1_pd(denom[0]);
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) {
    x[v] = _mm512_div_pd(load_lanes<V>(p, v, tail), d0);
    store_lanes<V>(p, v, tail, x[v]);
  }
  for (int k = 1; k < nlev; ++k) {
    double* r = p + static_cast<std::size_t>(k) * stride;
    const __m512d ak = _mm512_set1_pd(a[k]);
    const __m512d dk = _mm512_set1_pd(denom[k]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      x[v] = _mm512_div_pd(
          _mm512_sub_pd(load_lanes<V>(r, v, tail), _mm512_mul_pd(ak, x[v])),
          dk);
      store_lanes<V>(r, v, tail, x[v]);
    }
  }
  for (int k = nlev - 1; k-- > 0;) {
    double* r = p + static_cast<std::size_t>(k) * stride;
    const __m512d ck = _mm512_set1_pd(cp[k]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      x[v] = _mm512_sub_pd(load_lanes<V>(r, v, tail), _mm512_mul_pd(ck, x[v]));
      store_lanes<V>(r, v, tail, x[v]);
    }
  }
}

/// Splits `lanes` into blocks of at most kColumnVectors vectors and runs
/// `block<V>(live, p + first lane)` on each.
template <class Block>
void for_each_lane_block(std::size_t lanes, double* panel, Block block) {
  std::size_t vectors = (lanes + 7) / 8;
  for (std::size_t c = 0; vectors > 0;) {
    const std::size_t blocks = (vectors + kColumnVectors - 1) / kColumnVectors;
    const std::size_t nv = (vectors + blocks - 1) / blocks;
    const std::size_t live = std::min(lanes - c, 8 * nv);
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

const KernelOps* avx512_ops() {
  static const KernelOps ops{flux_row,        advect_update_row,
                             stencil7_interior, pointwise_panel,
                             daxpy,           conv_chunk,
                             longwave_lanes,  thomas_lanes,
                             8 * kColumnVectors};
  return &ops;
}

}  // namespace agcm::simd::detail

#else  // no AVX-512 F+DQ+VL

namespace agcm::simd::detail {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace agcm::simd::detail

#endif
