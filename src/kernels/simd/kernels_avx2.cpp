// AVX2 tier (4 doubles per vector): the trait behind kernels_wide.inc,
// compiled with -mavx2 -ffp-contract=off (src/kernels/simd/CMakeLists.txt).
#include "kernels/simd/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "kernels/simd/kernels_wide.inc"

namespace agcm::simd::detail {

namespace {

struct Avx2 {
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr int kWidth = 4;

  static Mask tail(std::size_t count) {
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(count)),
        _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec set1(double x) { return _mm256_set1_pd(x); }
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec load(const double* p, Mask m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, Vec x) { _mm256_storeu_pd(p, x); }
  static void store(double* p, Mask m, Vec x) { _mm256_maskstore_pd(p, m, x); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  /// blendv picks its SECOND operand where the mask is set.
  static Vec upwind(Vec f, Vec a, Vec b) {
    return _mm256_blendv_pd(b, a, _mm256_cmp_pd(f, zero(), _CMP_GE_OQ));
  }
};

}  // namespace

const KernelOps* avx2_ops() { return tier_ops<Avx2>(); }

}  // namespace agcm::simd::detail

#else  // !__AVX2__

namespace agcm::simd::detail {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace agcm::simd::detail

#endif
