// SIMD dispatch backend: cross-tier correctness (docs/kernels.md).
//
// Every test sweeps the tiers the host can actually run (scalar always,
// AVX2/AVX-512 when built and supported) via force_tier(), so one binary
// covers whatever the machine offers and degrades gracefully elsewhere:
//
// every family (flux/update rows, stencil interior, pointwise panel,
// daxpy, ring convolution chunk) must be BITWISE identical to the scalar
// kernels on every tier, at awkward sizes (remainder lanes n%8 in 1..7),
// unaligned interior offsets, and through the full advection engine on the
// test_dynamics awkward-shape sweep (ghost 1-2, 0/1/5 tracers); the
// convolution chunk also matches a per-element `mod n` reference, and the
// column families (longwave exchange, Thomas solve across lanes) match the
// one-column seed loops. No supported tier may demote a family, or its
// sweeps would compare the scalar kernels with themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "dynamics/advection.hpp"
#include "dynamics/advection_seed_ref.hpp"
#include "grid/array3d.hpp"
#include "kernels/simd/dispatch.hpp"
#include "linsolve/tridiag.hpp"
#include "singlenode/miniblas.hpp"
#include "singlenode/pointwise.hpp"
#include "util/aligned.hpp"

namespace {

namespace simd = agcm::simd;
using agcm::grid::Array3D;

template <class T>
using AlignedVec = std::vector<T, agcm::util::AlignedAllocator<T, 64>>;

/// All tiers this host can execute, scalar first.
std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  for (simd::Tier t : {simd::Tier::kAvx2, simd::Tier::kAvx512})
    if (simd::tier_supported(t)) tiers.push_back(t);
  return tiers;
}

class ForcedTier {
 public:
  explicit ForcedTier(simd::Tier tier) {
    EXPECT_TRUE(simd::force_tier(tier));
  }
  ~ForcedTier() { simd::reset_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

void fill_det(std::span<double> v, unsigned seed, double base) {
  unsigned s = seed;
  for (double& x : v) {
    s = s * 1664525u + 1013904223u;
    x = base + (static_cast<double>(s >> 8) * 0x1p-24 - 0.5) * 0.125;
  }
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Awkward sizes: every remainder lane 1..7 for both 4- and 8-wide paths,
/// plus multi-vector lengths.
constexpr int kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 16, 17, 23,
                          31, 32, 33, 41};
/// Interior offsets that break 64-byte alignment of every operand.
constexpr int kOffsets[] = {0, 1, 3, 5, 7};

// --- dispatch API ----------------------------------------------------------

TEST(SimdDispatch, TierNamesRoundTrip) {
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    simd::Tier parsed{};
    ASSERT_TRUE(simd::parse_tier(simd::tier_name(t), parsed));
    EXPECT_EQ(parsed, t);
  }
  simd::Tier out{};
  EXPECT_FALSE(simd::parse_tier("", out));
  EXPECT_FALSE(simd::parse_tier("sse2", out));
  EXPECT_FALSE(simd::parse_tier("avx-512", out));
  EXPECT_TRUE(simd::parse_tier("AVX2", out));  // case-insensitive
  EXPECT_EQ(out, simd::Tier::kAvx2);
}

TEST(SimdDispatch, InfoIsConsistent) {
  const simd::DispatchInfo& info = simd::info();
  EXPECT_EQ(info.active, simd::active_tier());
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  // The active tier must be one the host supports.
  EXPECT_TRUE(simd::tier_supported(info.active));
  // A tier can only be supported if its kernels were compiled in.
  if (!info.built_avx2) {
    EXPECT_FALSE(simd::tier_supported(simd::Tier::kAvx2));
  }
  if (!info.built_avx512) {
    EXPECT_FALSE(simd::tier_supported(simd::Tier::kAvx512));
  }
}

TEST(SimdDispatch, ForceTierHonoursSupport) {
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_supported(t)) {
      EXPECT_TRUE(simd::force_tier(t));
      EXPECT_EQ(simd::active_tier(), t);
    } else {
      const simd::Tier before = simd::active_tier();
      EXPECT_FALSE(simd::force_tier(t));
      EXPECT_EQ(simd::active_tier(), before);  // table untouched on failure
    }
  }
  simd::reset_tier();
}

/// Every tier the host supports serves all of its own kernels. A family
/// that failed the dispatcher's self-check would be served by the scalar
/// kernel, and every bitwise sweep below would then pass on that tier
/// while testing scalar twice.
TEST(SimdDispatch, NoSupportedTierDemotesAnyFamily) {
  for (simd::Tier tier : supported_tiers()) {
    const ForcedTier forced(tier);
    for (const std::string& family : simd::info().demoted_families)
      ADD_FAILURE() << family << " demoted at tier=" << simd::tier_name(tier);
  }
}

TEST(SimdDispatch, FamilyMetadata) {
  for (int f = 0; f < simd::kFamilyCount; ++f) {
    const char* name = simd::family_name(static_cast<simd::Family>(f));
    ASSERT_NE(name, nullptr) << "family " << f;
    EXPECT_GT(std::strlen(name), 0u) << "family " << f;
  }
}

// --- row kernels: bitwise at awkward sizes and offsets --------------------

TEST(SimdKernels, FamiliesBitwiseAtAwkwardShapes) {
  constexpr int kMax = 41, kPad = 8;
  // Room for the kernels that write a second region at [uoff + n, uoff + 2n).
  constexpr std::size_t kBuf = 2 * (kMax + kPad) + 2 * kPad;
  AlignedVec<double> a(kBuf), b(kBuf), c(kBuf), d(kBuf), e(kBuf), g(kBuf),
      h(kBuf), o_ref(kBuf), o_cand(kBuf);
  fill_det(a, 1u, 0.0);
  fill_det(b, 2u, 0.0);
  fill_det(c, 3u, 0.0);
  fill_det(d, 4u, 0.0);
  fill_det(e, 5u, 0.0);
  fill_det(g, 6u, 1.0);  // thickness-like divisor streams, away from zero
  fill_det(h, 7u, 1.0);

  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    for (int n : kSizes) {
      for (int off : kOffsets) {
        if (kPad + off + 2 * n > static_cast<int>(kBuf)) continue;
        SCOPED_TRACE(::testing::Message() << "n=" << n << " off=" << off);
        const auto uoff = static_cast<std::size_t>(kPad + off);
        auto run = [&](bool candidate, AlignedVec<double>& out) {
          fill_det(out, 9u, 0.25);
          const ForcedTier forced(candidate ? tier : simd::Tier::kScalar);
          const simd::KernelOps& ops = simd::ops();
          ops.flux_row(n, 0.75, a.data() + uoff, b.data() + uoff,
                       b.data() + uoff + 1, out.data() + uoff);
          ops.advect_update_row(n, 0.5, a.data() + uoff, b.data() + uoff,
                                c.data() + uoff, d.data() + uoff,
                                e.data() + uoff, a.data() + uoff + 1,
                                g.data() + uoff, h.data() + uoff,
                                out.data() + uoff + n);
          // stencil accumulates into out[] (refilled deterministically above).
          ops.stencil7_interior(n, a.data() + uoff, b.data() + uoff,
                                c.data() + uoff, d.data() + uoff,
                                e.data() + uoff, out.data() + uoff);
          ops.pointwise_panel(static_cast<std::size_t>(n), a.data() + uoff,
                              b.data() + uoff, out.data() + uoff + n);
          ops.daxpy(static_cast<std::size_t>(n), 0x1.8p-3, a.data() + uoff,
                    out.data() + uoff);
        };
        run(true, o_cand);
        run(false, o_ref);
        EXPECT_TRUE(bits_equal(o_ref, o_cand));
      }
    }
  }
}

// --- ring convolution chunk: across outputs, every add in order -----------

/// The family's contract written per element with one `mod n` per product,
/// straight from the unextended kernel: an independent oracle for the
/// periodic extension and for the order of every output's adds.
void conv_chunk_reference(std::size_t width, std::size_t m, std::size_t n,
                          std::size_t lag0, std::span<const double> kernel,
                          std::span<const double> src, std::span<double> dst) {
  for (std::size_t c = 0; c < width; ++c) {
    double acc = 0.0;
    for (std::size_t g = 0; g < m; ++g)
      acc += kernel[(lag0 + n + c - g) % n] * src[g];
    dst[c] += acc;
  }
}

/// Widths 1, 7, 36 and n; m = 1, 13 and n; every lag0 for n <= 50, so the
/// wrap lands at the first output, the last and inside every vector lane,
/// and a set of lags around the vector boundaries for n = 144. dst starts
/// nonzero, and guard entries past `width` must come back untouched.
TEST(SimdKernels, ConvChunkBitwiseOnEveryTierAtAwkwardShapes) {
  constexpr std::size_t kGuard = 9;
  for (std::size_t n : {1u, 7u, 36u, 50u, 144u}) {
    std::vector<double> kernel(n), src(n), dst0(n + kGuard);
    // A non-dyadic kernel near 1/3: the products round and each sum
    // outgrows dst's entry, so a change in the order of the adds shows.
    fill_det(kernel, 61u, 1.0);
    for (double& k : kernel) k /= 3.0;
    fill_det(src, 67u, 1.0);
    fill_det(dst0, 71u, 0.0);
    std::vector<std::size_t> lags;
    if (n <= 50) {
      for (std::size_t l = 0; l < n; ++l) lags.push_back(l);
    } else {
      lags = {0, 1, 3, 7, 8, 9, 100, 107, 108, 109, 136, 140, 142, 143};
    }
    for (std::size_t width :
         {std::size_t{1}, std::size_t{7}, std::size_t{36}, n}) {
      if (width > n) continue;
      std::vector<double> kext(n + width - 1);
      for (std::size_t i = 0; i < kext.size(); ++i) kext[i] = kernel[i % n];
      for (std::size_t m : {std::size_t{1}, std::size_t{13}, n}) {
        if (m > n) continue;
        for (std::size_t lag0 : lags) {
          std::vector<double> ref = dst0, scalar = dst0;
          conv_chunk_reference(width, m, n, lag0, kernel, src, ref);
          {
            const ForcedTier forced(simd::Tier::kScalar);
            simd::ops().conv_chunk(width, m, n, lag0, kext.data(), src.data(),
                                   scalar.data());
          }
          for (simd::Tier tier : supported_tiers()) {
            std::vector<double> got = dst0;
            {
              const ForcedTier forced(tier);
              simd::ops().conv_chunk(width, m, n, lag0, kext.data(),
                                     src.data(), got.data());
            }
            if (!bits_equal(ref, got) || !bits_equal(scalar, got)) {
              ADD_FAILURE() << "tier=" << simd::tier_name(tier) << " n=" << n
                            << " width=" << width << " m=" << m
                            << " lag0=" << lag0;
              return;
            }
          }
        }
      }
    }
  }
}

/// Every product zero and dst = -0.0: each output's sum must start from
/// +0.0, so -0.0 + (+0.0) lands +0.0 in dst. A sum seeded with its first
/// product (-0.0 here) would leave -0.0.
TEST(SimdKernels, ConvChunkStartsEachSumAtPositiveZero) {
  constexpr std::size_t kN = 19, kWidth = 17, kM = 11;
  const std::vector<double> kext(kN + kWidth - 1, -1.5), src(kM, 0.0);
  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    std::vector<double> dst(kWidth, -0.0);
    const ForcedTier forced(tier);
    simd::ops().conv_chunk(kWidth, kM, kN, 5, kext.data(), src.data(),
                           dst.data());
    for (double d : dst) EXPECT_FALSE(std::signbit(d));
  }
}

// --- column physics across lanes --------------------------------------------

/// One column's longwave exchange exactly as the seed wrote it
/// (physics/column_seed_ref.cpp): per-pair emissivity, one accumulator.
void longwave_reference(std::span<double> theta, double dt_sec) {
  const int nlev = static_cast<int>(theta.size());
  for (int k1 = 0; k1 < nlev; ++k1) {
    double exchange = 0.0;
    for (int k2 = 0; k2 < nlev; ++k2) {
      if (k1 == k2) continue;
      const double t1 = theta[static_cast<std::size_t>(k1)];
      const double t2 = theta[static_cast<std::size_t>(k2)];
      exchange += 0.015 / (1.0 + std::abs(k1 - k2)) * (t2 - t1);
    }
    theta[static_cast<std::size_t>(k1)] += dt_sec * (exchange - 0.8) / 86400.0;
  }
}

/// Lane counts across every vector remainder and block split, level counts
/// from 1 up, level rows packed (stride = lanes) and padded with guard
/// entries the kernels must leave alone. Each lane must equal its column
/// run alone through the seed loop (longwave) or through
/// linsolve::thomas_solve_into on the full bands (Thomas), on every tier.
/// The longwave data are temperatures spread over ±85 with a 1024-day
/// step, so each layer's heating outgrows its temperature and a change in
/// the order of the exchange sum's adds shows in the bits.
TEST(SimdKernels, ColumnLanesBitwiseOnEveryTierAtAwkwardShapes) {
  constexpr double kDiff = 0.08, kDt = 1024.0 * 86400.0;
  for (int nlev : {1, 2, 3, 5, 9, 15, 33}) {
    const auto n = static_cast<std::size_t>(nlev);
    std::vector<double> emis(n), a(n, -kDiff), b(n, 1.0 + 2.0 * kDiff),
        c(n, -kDiff), cp(n), denom(n);
    for (std::size_t d = 0; d < n; ++d) emis[d] = 0.015 / (1.0 + d);
    b.front() = 1.0 + kDiff;
    b.back() = 1.0 + kDiff;
    denom[0] = b[0];
    cp[0] = c[0] / b[0];
    for (std::size_t k = 1; k < n; ++k) {
      denom[k] = b[k] - a[k] * cp[k - 1];
      cp[k] = c[k] / denom[k];
    }
    for (std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                              31u, 32u, 33u, 54u, 65u}) {
      for (std::size_t pad : {std::size_t{0}, std::size_t{5}}) {
        SCOPED_TRACE(::testing::Message() << "nlev=" << nlev << " lanes="
                                          << lanes << " pad=" << pad);
        const std::size_t stride = lanes + pad;
        std::vector<double> panel0(n * stride);
        fill_det(panel0, 73u, 0.0);
        for (double& t : panel0) t *= 4096.0 / 3.0;
        // Column references, one lane at a time.
        std::vector<double> lw_ref = panel0, th_ref = panel0;
        std::vector<double> col(n), x(n), scratch(n);
        for (std::size_t l = 0; l < lanes; ++l) {
          for (std::size_t k = 0; k < n; ++k) col[k] = panel0[k * stride + l];
          longwave_reference(col, kDt);
          for (std::size_t k = 0; k < n; ++k) lw_ref[k * stride + l] = col[k];
          for (std::size_t k = 0; k < n; ++k) col[k] = panel0[k * stride + l];
          agcm::linsolve::thomas_solve_into(a, b, c, col, x, scratch);
          for (std::size_t k = 0; k < n; ++k) th_ref[k * stride + l] = x[k];
        }
        for (simd::Tier tier : supported_tiers()) {
          const ForcedTier forced(tier);
          std::vector<double> lw = panel0, th = panel0;
          simd::ops().longwave_lanes(nlev, lanes, stride, emis.data(), kDt,
                                     lw.data());
          simd::ops().thomas_lanes(nlev, lanes, stride, a.data(), cp.data(),
                                   denom.data(), th.data());
          if (!bits_equal(lw_ref, lw) || !bits_equal(th_ref, th)) {
            ADD_FAILURE() << "tier=" << simd::tier_name(tier)
                          << (bits_equal(lw_ref, lw) ? " thomas_lanes"
                                                     : " longwave_lanes");
            return;
          }
        }
      }
    }
  }
}

// --- production entry points ------------------------------------------------

/// The test_dynamics awkward-shape sweep, repeated per tier: the production
/// advection path must reproduce the seed bits whatever tier dispatch picks.
TEST(SimdEngine, AdvectionBitIdenticalToSeedOnEveryTier) {
  using namespace agcm::dynamics;
  struct Shape {
    int ni, nj, nk, ghost, ntracers;
  };
  constexpr Shape kShapes[] = {{1, 2, 2, 1, 1},  {3, 4, 2, 1, 0},
                               {5, 9, 1, 1, 5},  {7, 2, 3, 2, 2},
                               {9, 3, 2, 2, 1},  {12, 5, 2, 1, 3},
                               {15, 3, 1, 2, 2}, {17, 4, 2, 1, 1}};
  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(::testing::Message()
                   << "ni=" << s.ni << " nj=" << s.nj << " nk=" << s.nk
                   << " ghost=" << s.ghost << " tracers=" << s.ntracers);
      const agcm::grid::LatLonGrid grid(std::max(4, s.ni), s.nj + 2, s.nk);
      const agcm::grid::LocalBox box{0, s.ni, 1, s.nj};
      const Metrics metrics = Metrics::build(grid, box);

      auto fill_ghosted = [](Array3D<double>& arr, double base, int tag) {
        const int gh = arr.ghost();
        for (int k = 0; k < arr.nk(); ++k)
          for (int j = -gh; j < arr.nj() + gh; ++j)
            for (int i = -gh; i < arr.ni() + gh; ++i)
              arr(i, j, k) =
                  base + std::sin(0.31 * i + 0.17 * j + 0.53 * k + 1.7 * tag);
      };
      Array3D<double> h_old(s.ni, s.nj, s.nk, s.ghost);
      Array3D<double> h_new(s.ni, s.nj, s.nk, s.ghost);
      Array3D<double> u(s.ni, s.nj, s.nk, s.ghost);
      Array3D<double> v(s.ni, s.nj, s.nk, s.ghost);
      fill_ghosted(h_old, 1000.0, 1);
      fill_ghosted(h_new, 1000.0, 2);
      fill_ghosted(u, 0.0, 3);
      fill_ghosted(v, 0.0, 4);

      std::vector<Array3D<double>> tr_seed, tr_eng;
      std::vector<Array3D<double>*> ptr_seed, ptr_eng;
      for (int t = 0; t < s.ntracers; ++t) {
        Array3D<double> c(s.ni, s.nj, s.nk, s.ghost);
        fill_ghosted(c, 280.0 + 3.0 * t, 10 + t);
        tr_seed.push_back(c);
        tr_eng.push_back(c);
      }
      for (int t = 0; t < s.ntracers; ++t) {
        ptr_seed.push_back(&tr_seed[static_cast<std::size_t>(t)]);
        ptr_eng.push_back(&tr_eng[static_cast<std::size_t>(t)]);
      }

      advect_tracers_optimized_seed_ref(
          grid, box, metrics, h_old, h_new, u, v,
          std::span<Array3D<double>* const>(ptr_seed), 240.0);
      {
        const ForcedTier forced(tier);
        advect_tracers_optimized(grid, box, metrics, h_old, h_new, u, v,
                                 std::span<Array3D<double>* const>(ptr_eng),
                                 240.0);
      }
      for (int t = 0; t < s.ntracers; ++t) {
        const auto sa = tr_seed[static_cast<std::size_t>(t)].pack_interior();
        const auto ea = tr_eng[static_cast<std::size_t>(t)].pack_interior();
        EXPECT_TRUE(bits_equal(sa, ea)) << "tracer " << t;
      }
    }
  }
}

TEST(SimdEngine, PointwiseDispatchBitwiseOnEveryTier) {
  using namespace agcm::singlenode;
  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    for (int m : {1, 3, 5, 7, 9, 16, 144}) {
      for (int panels : {1, 2, 5}) {
        const auto n = static_cast<std::size_t>(m) * panels;
        std::vector<double> a(n), b(static_cast<std::size_t>(m)), ref(n),
            got(n);
        fill_det(a, 41u, 1.0);
        fill_det(b, 43u, 2.0);
        pointwise_multiply_unrolled(a, b, ref);
        const ForcedTier forced(tier);
        pointwise_multiply_dispatch(a, b, got);
        EXPECT_TRUE(bits_equal(ref, got)) << "m=" << m << " panels=" << panels;
      }
    }
  }
}

TEST(SimdEngine, MiniblasDispatchOnEveryTier) {
  using namespace agcm::singlenode;
  constexpr std::size_t kN = 103;  // odd: remainder lanes on every tier
  std::vector<double> x(kN), y0(kN);
  fill_det(x, 51u, 1.0);
  fill_det(y0, 53u, 2.0);
  std::vector<double> ref = y0;
  daxpy(0.75, x, ref);
  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    const ForcedTier forced(tier);
    std::vector<double> got = y0;
    daxpy_dispatch(0.75, x, got);
    EXPECT_TRUE(bits_equal(ref, got));
  }
}

}  // namespace
