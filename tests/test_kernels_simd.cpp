// SIMD dispatch backend: cross-tier correctness (docs/kernels.md).
//
// Every test sweeps the tiers the host can actually run (scalar always,
// AVX2/AVX-512 when built and supported) via force_tier(), so one binary
// covers whatever the machine offers and degrades gracefully elsewhere:
//
//  * the CONTRACTED families (flux/update rows, stencil interior,
//    pointwise panel, daxpy) must be BITWISE identical to the scalar
//    kernels on every tier, at awkward sizes (remainder lanes n%8 in
//    1..7), unaligned interior offsets, and through the full advection
//    engine on the test_dynamics awkward-shape sweep (ghost 1-2, 0/1/5
//    tracers);
//  * the REDUCTION families (ddot, longwave exchange, FFT butterflies)
//    must stay within a small ulp envelope of the sequential scalar forms,
//    and must be bitwise identical when the scalar tier is forced (the
//    dispatch indirection itself must not move bits).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dynamics/advection.hpp"
#include "dynamics/advection_seed_ref.hpp"
#include "fft/fft.hpp"
#include "grid/array3d.hpp"
#include "kernels/column_kernels.hpp"
#include "kernels/simd/dispatch.hpp"
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

double ulp_diff(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) return 1e30;
  auto ordered = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return (u & 0x8000000000000000ull) ? ~u : (u | 0x8000000000000000ull);
  };
  const std::uint64_t ua = ordered(a), ub = ordered(b);
  return static_cast<double>(ua > ub ? ua - ub : ub - ua);
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

TEST(SimdDispatch, ScalarTierNeverDemotes) {
  const ForcedTier forced(simd::Tier::kScalar);
  EXPECT_TRUE(simd::info().demoted_families.empty());
}

TEST(SimdDispatch, FamilyMetadata) {
  EXPECT_TRUE(
      simd::family_is_contracted(simd::Family::kFluxRow));
  EXPECT_TRUE(
      simd::family_is_contracted(simd::Family::kAdvectUpdateRow));
  EXPECT_TRUE(simd::family_is_contracted(simd::Family::kPointwisePanel));
  EXPECT_TRUE(simd::family_is_contracted(simd::Family::kDaxpy));
  EXPECT_FALSE(simd::family_is_contracted(simd::Family::kDdot));
  EXPECT_FALSE(simd::family_is_contracted(simd::Family::kLongwaveExchange));
  EXPECT_FALSE(simd::family_is_contracted(simd::Family::kFftRadix2));
  EXPECT_FALSE(simd::family_is_contracted(simd::Family::kFftRadix4));
  EXPECT_STREQ(simd::family_name(simd::Family::kFluxRow), "flux_row");
}

// --- contracted row kernels: bitwise at awkward sizes and offsets ----------

TEST(SimdKernels, ContractedFamiliesBitwiseAtAwkwardShapes) {
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

// --- reduction kernels: ulp-bounded, bitwise under forced scalar -----------

TEST(SimdKernels, DdotWithinUlpEnvelope) {
  constexpr std::size_t kN = 1024;
  AlignedVec<double> x(kN), y(kN);
  fill_det(x, 21u, 1.0);
  fill_det(y, 22u, -1.0);
  double ref = 0.0;
  {
    const ForcedTier forced(simd::Tier::kScalar);
    ref = simd::ops().ddot(kN, x.data(), y.data());
    // Forced scalar is the sequential scalar sum exactly.
    EXPECT_EQ(ref, agcm::singlenode::ddot({x.data(), kN}, {y.data(), kN}));
  }
  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    const ForcedTier forced(tier);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                          kN}) {
      const double got = simd::ops().ddot(n, x.data(), y.data());
      double seq = 0.0;
      for (std::size_t i = 0; i < n; ++i) seq += x[i] * y[i];
      // n*eps-scale reassociation envelope (loose but diagnostic).
      EXPECT_LE(ulp_diff(got, seq), 64.0 + static_cast<double>(n));
    }
  }
}

TEST(SimdKernels, LongwaveSweepSimdMatchesScalar) {
  for (int nlev : {1, 2, 5, 9, 17, 40}) {
    SCOPED_TRACE(::testing::Message() << "nlev=" << nlev);
    std::vector<double> emis(static_cast<std::size_t>(nlev));
    agcm::kernels::fill_longwave_emissivity(emis.data(), nlev);
    std::vector<double> theta0(static_cast<std::size_t>(nlev));
    fill_det(theta0, 31u, 290.0);

    std::vector<double> ref = theta0;
    agcm::kernels::longwave_sweep(ref.data(), nlev, emis.data(), 450.0);

    for (simd::Tier tier : supported_tiers()) {
      SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
      const ForcedTier forced(tier);
      std::vector<double> got = theta0;
      agcm::kernels::longwave_sweep_simd(got.data(), nlev, emis.data(),
                                         450.0);
      if (tier == simd::Tier::kScalar) {
        EXPECT_TRUE(bits_equal(ref, got));  // dispatch moves no bits
      } else {
        for (int k = 0; k < nlev; ++k)
          EXPECT_LE(ulp_diff(ref[static_cast<std::size_t>(k)],
                             got[static_cast<std::size_t>(k)]),
                    16.0);
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
  const double dot_ref = ddot(x, y0);
  for (simd::Tier tier : supported_tiers()) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    const ForcedTier forced(tier);
    std::vector<double> got = y0;
    daxpy_dispatch(0.75, x, got);
    EXPECT_TRUE(bits_equal(ref, got));  // CONTRACTED: bitwise everywhere
    const double dot_got = ddot_dispatch(x, y0);
    if (tier == simd::Tier::kScalar) {
      EXPECT_EQ(dot_ref, dot_got);
    } else {
      EXPECT_LE(ulp_diff(dot_ref, dot_got), 256.0);
    }
  }
}

TEST(SimdEngine, FftSimdPathMatchesScalarOnEveryTier) {
  using agcm::fft::Complex;
  using agcm::fft::FftPlan;
  // 144 = 4*4*3*3 (paper grid), 1024 = pure radix-4/2, 20 = 5*4, 37 prime
  // (generic stage only), 8 = 4*2 (both SIMD radices).
  for (int n : {8, 20, 37, 144, 1024}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const FftPlan plan(n);
    std::vector<double> re(static_cast<std::size_t>(n)),
        im(static_cast<std::size_t>(n));
    fill_det(re, 61u, 0.0);
    fill_det(im, 67u, 0.0);
    std::vector<Complex> init(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      init[static_cast<std::size_t>(i)] = {re[static_cast<std::size_t>(i)],
                                           im[static_cast<std::size_t>(i)]};

    std::vector<Complex> ref = init;
    plan.forward(ref);

    for (simd::Tier tier : supported_tiers()) {
      SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
      const ForcedTier forced(tier);
      std::vector<Complex> got = init;
      plan.forward_simd(got);
      const auto* rr = reinterpret_cast<const double*>(ref.data());
      const auto* gr = reinterpret_cast<const double*>(got.data());
      const auto n2 = static_cast<std::size_t>(n) * 2;
      if (tier == simd::Tier::kScalar) {
        EXPECT_TRUE(bits_equal({rr, n2}, {gr, n2}));
      } else {
        for (std::size_t i = 0; i < n2; ++i)
          EXPECT_LE(ulp_diff(rr[i], gr[i]), 16.0);
      }
      // Round trip through the SIMD inverse recovers the input closely.
      plan.inverse_simd(got);
      for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        EXPECT_NEAR(got[ui].real(), init[ui].real(), 1e-12);
        EXPECT_NEAR(got[ui].imag(), init[ui].imag(), 1e-12);
      }
    }
  }
}

}  // namespace
