// AVX-512 tier (8 doubles per vector): the trait behind kernels_wide.inc,
// compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off
// (src/kernels/simd/CMakeLists.txt).
#include "kernels/simd/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include "kernels/simd/kernels_wide.inc"

namespace agcm::simd::detail {

namespace {

struct Avx512 {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr int kWidth = 8;

  static Mask tail(std::size_t count) {
    return static_cast<Mask>((1u << count) - 1u);
  }
  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec set1(double x) { return _mm512_set1_pd(x); }
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec load(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, Vec x) { _mm512_storeu_pd(p, x); }
  static void store(double* p, Mask m, Vec x) {
    _mm512_mask_storeu_pd(p, m, x);
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  /// mask_blend picks its THIRD operand where the mask is set.
  static Vec upwind(Vec f, Vec a, Vec b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(f, zero(), _CMP_GE_OQ), b,
                                a);
  }
};

}  // namespace

const KernelOps* avx512_ops() { return tier_ops<Avx512>(); }

}  // namespace agcm::simd::detail

#else  // no AVX-512 F+DQ+VL

namespace agcm::simd::detail {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace agcm::simd::detail

#endif
