// Tests for the FFT library: parameterized round-trip and reference-DFT
// equivalence over many lengths (all prime factorisations), the convolution
// theorem, real-line helpers, and the shared plan cache (identity,
// bit-equality with fresh plans, concurrent use of one instance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <thread>

#include "fft/dft_ref.hpp"
#include "fft/fft.hpp"
#include "fft/plan_cache.hpp"
#include "fft/recursive_ref.hpp"
#include "util/rng.hpp"

namespace agcm::fft {
namespace {

std::vector<Complex> random_signal(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

double max_err(std::span<const Complex> a, std::span<const Complex> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

TEST(PrimeFactors, KnownFactorisations) {
  EXPECT_EQ(prime_factors(1), std::vector<int>{});
  EXPECT_EQ(prime_factors(2), std::vector<int>{2});
  EXPECT_EQ(prime_factors(144), (std::vector<int>{2, 2, 2, 2, 3, 3}));
  EXPECT_EQ(prime_factors(30), (std::vector<int>{2, 3, 5}));
  EXPECT_EQ(prime_factors(97), std::vector<int>{97});
  EXPECT_EQ(prime_factors(49), (std::vector<int>{7, 7}));
}

class FftLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(FftLengthSweep, MatchesReferenceDft) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto x = random_signal(n, 100 + static_cast<std::uint64_t>(n));
  const auto expected = dft(x);
  plan.forward(x);
  EXPECT_LT(max_err(x, expected), 1e-9 * n) << "n=" << n;
}

TEST_P(FftLengthSweep, ForwardInverseIsIdentity) {
  const int n = GetParam();
  const FftPlan plan(n);
  const auto original = random_signal(n, 200 + static_cast<std::uint64_t>(n));
  auto x = original;
  plan.forward(x);
  plan.inverse(x);
  EXPECT_LT(max_err(x, original), 1e-10 * n) << "n=" << n;
}

TEST_P(FftLengthSweep, LinearityHolds) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto a = random_signal(n, 300);
  auto b = random_signal(n, 301);
  std::vector<Complex> sum(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) sum[i] = 2.0 * a[i] + b[i];
  plan.forward(a);
  plan.forward(b);
  plan.forward(sum);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + b[i])), 1e-9 * n);
}

// 144 is the paper's grid length; the rest cover every code path: powers of
// two, powers of three, 2*3*5 mixes, a prime, and a prime square.
INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27,
                                           30, 45, 60, 64, 97, 120, 144, 180,
                                           240, 49));

TEST(Fft, DeltaTransformsToConstant) {
  const int n = 16;
  const FftPlan plan(n);
  std::vector<Complex> x(n, Complex{0.0, 0.0});
  x[0] = {1.0, 0.0};
  plan.forward(x);
  for (const auto& v : x) EXPECT_LT(std::abs(v - Complex{1.0, 0.0}), 1e-12);
}

TEST(Fft, SingleModeLandsInOneBin) {
  const int n = 144;
  const FftPlan plan(n);
  const int s = 5;
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double angle = 2.0 * std::numbers::pi * s * j / n;
    x[static_cast<std::size_t>(j)] = {std::cos(angle), std::sin(angle)};
  }
  plan.forward(x);
  for (int k = 0; k < n; ++k) {
    const double expected = k == s ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(k)]), expected, 1e-8);
  }
}

TEST(Fft, RealRoundTrip) {
  const int n = 144;
  const FftPlan plan(n);
  Rng rng(7);
  std::vector<double> line(static_cast<std::size_t>(n));
  for (double& v : line) v = rng.uniform(-3.0, 3.0);
  auto spectrum = plan.forward_real(line);
  // Conjugate symmetry of a real signal's spectrum.
  for (int s = 1; s < n; ++s)
    EXPECT_LT(std::abs(spectrum[static_cast<std::size_t>(s)] -
                       std::conj(spectrum[static_cast<std::size_t>(n - s)])),
              1e-9);
  std::vector<double> back(line.size());
  plan.inverse_to_real(spectrum, back);
  for (std::size_t i = 0; i < line.size(); ++i)
    EXPECT_NEAR(back[i], line[i], 1e-10);
}

TEST(Fft, RealPairMatchesTwoSingleTransforms) {
  const int n = 144;
  const FftPlan plan(n);
  Rng rng(21);
  std::vector<double> x(static_cast<std::size_t>(n)), y(x.size());
  for (double& v : x) v = rng.uniform(-2.0, 2.0);
  for (double& v : y) v = rng.uniform(-2.0, 2.0);
  const auto sx_ref = plan.forward_real(x);
  const auto sy_ref = plan.forward_real(y);
  std::vector<Complex> sx(x.size()), sy(y.size());
  plan.forward_real_pair(x, y, sx, sy);
  EXPECT_LT(max_err(sx, sx_ref), 1e-10);
  EXPECT_LT(max_err(sy, sy_ref), 1e-10);
}

TEST(Fft, RealPairRoundTrip) {
  const int n = 60;
  const FftPlan plan(n);
  Rng rng(22);
  std::vector<double> x(static_cast<std::size_t>(n)), y(x.size());
  for (double& v : x) v = rng.uniform(-2.0, 2.0);
  for (double& v : y) v = rng.uniform(-2.0, 2.0);
  std::vector<Complex> sx(x.size()), sy(y.size());
  plan.forward_real_pair(x, y, sx, sy);
  std::vector<double> x2(x.size()), y2(y.size());
  plan.inverse_to_real_pair(sx, sy, x2, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x2[i], x[i], 1e-10);
    EXPECT_NEAR(y2[i], y[i], 1e-10);
  }
}

TEST(Dft, InverseOfForward) {
  auto x = random_signal(20, 5);
  const auto back = idft(dft(x));
  EXPECT_LT(max_err(back, x), 1e-10);
}

TEST(Convolution, TheoremHolds) {
  // DFT(a (*) b) == DFT(a) .* DFT(b) — the identity the paper exploits to
  // replace convolution filtering with FFT filtering.
  const int n = 36;
  Rng rng(9);
  std::vector<double> a(static_cast<std::size_t>(n)), b(a.size());
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto conv = circular_convolution(a, b);

  const FftPlan plan(n);
  auto sa = plan.forward_real(a);
  const auto sb = plan.forward_real(b);
  for (std::size_t i = 0; i < sa.size(); ++i) sa[i] *= sb[i];
  std::vector<double> via_fft(a.size());
  plan.inverse_to_real(sa, via_fft);
  for (std::size_t i = 0; i < conv.size(); ++i)
    EXPECT_NEAR(via_fft[i], conv[i], 1e-10);
}

TEST(Convolution, DeltaKernelIsIdentity) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> delta{1.0, 0.0, 0.0, 0.0};
  const auto out = circular_convolution(a, delta);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(out[i], a[i]);
}

// ---------------------------------------------------------------------------
// Iterative-engine acceptance sweep: every length in {2..16, 36, 72, 144,
// 360, 500} (all small radices, the generic radices 7/11/13, and the AGCM
// grid lengths), each path checked against the O(n^2) reference DFT with a
// tight 1e-12 * n bound, plus exact round trips.

class EngineSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineSweep, ForwardMatchesReferenceDft) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto x = random_signal(n, 1000 + static_cast<std::uint64_t>(n));
  const auto expected = dft(x);
  plan.forward(x);
  EXPECT_LT(max_err(x, expected), 1e-12 * n) << "n=" << n;
}

TEST_P(EngineSweep, InverseMatchesReferenceIdft) {
  const int n = GetParam();
  const FftPlan plan(n);
  auto x = random_signal(n, 2000 + static_cast<std::uint64_t>(n));
  const auto expected = idft(x);
  plan.inverse(x);
  EXPECT_LT(max_err(x, expected), 1e-12 * n) << "n=" << n;
}

TEST_P(EngineSweep, ForwardInverseRoundTrip) {
  const int n = GetParam();
  const FftPlan plan(n);
  const auto original = random_signal(n, 3000 + static_cast<std::uint64_t>(n));
  auto x = original;
  plan.forward(x);
  plan.inverse(x);
  EXPECT_LT(max_err(x, original), 1e-12 * n) << "n=" << n;
}

TEST_P(EngineSweep, RealPathMatchesReferenceDft) {
  const int n = GetParam();
  const FftPlan plan(n);
  Rng rng(4000 + static_cast<std::uint64_t>(n));
  std::vector<double> line(static_cast<std::size_t>(n));
  for (double& v : line) v = rng.uniform(-2.0, 2.0);
  std::vector<Complex> packed(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) packed[i] = {line[i], 0.0};
  const auto expected = dft(packed);
  std::vector<Complex> spectrum(line.size());
  plan.forward_real(line, spectrum);
  EXPECT_LT(max_err(spectrum, expected), 1e-12 * n) << "n=" << n;
  // Round trip back to the real line.
  std::vector<double> back(line.size());
  plan.inverse_to_real(spectrum, back);
  for (std::size_t i = 0; i < line.size(); ++i)
    EXPECT_NEAR(back[i], line[i], 1e-12 * n);
}

TEST_P(EngineSweep, RealPairPathMatchesReferenceDft) {
  const int n = GetParam();
  const FftPlan plan(n);
  Rng rng(5000 + static_cast<std::uint64_t>(n));
  std::vector<double> x(static_cast<std::size_t>(n)), y(x.size());
  for (double& v : x) v = rng.uniform(-2.0, 2.0);
  for (double& v : y) v = rng.uniform(-2.0, 2.0);
  std::vector<Complex> px(x.size()), py(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    px[i] = {x[i], 0.0};
    py[i] = {y[i], 0.0};
  }
  const auto ex = dft(px);
  const auto ey = dft(py);
  std::vector<Complex> sx(x.size()), sy(y.size());
  plan.forward_real_pair(x, y, sx, sy);
  EXPECT_LT(max_err(sx, ex), 1e-12 * n) << "n=" << n;
  EXPECT_LT(max_err(sy, ey), 1e-12 * n) << "n=" << n;
  // Round trip both lines through the single shared inverse transform.
  std::vector<double> x2(x.size()), y2(y.size());
  plan.inverse_to_real_pair(sx, sy, x2, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x2[i], x[i], 1e-12 * n);
    EXPECT_NEAR(y2[i], y[i], 1e-12 * n);
  }
}

TEST_P(EngineSweep, AgreesWithSeedRecursiveEngine) {
  const int n = GetParam();
  const FftPlan plan(n);
  const RecursiveFftPlan seed(n);
  auto a = random_signal(n, 6000 + static_cast<std::uint64_t>(n));
  auto b = a;
  plan.forward(a);
  seed.forward(b);
  EXPECT_LT(max_err(a, b), 1e-12 * n) << "n=" << n;
  plan.inverse(a);
  seed.inverse(b);
  EXPECT_LT(max_err(a, b), 1e-12 * n) << "n=" << n;
}

// 17, 34 and 578 = 2*17^2 take the generic-radix butterfly with a radix
// above 16, whose gather buffer comes from the rank's FftWorkspace.
INSTANTIATE_TEST_SUITE_P(Lengths, EngineSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                           13, 14, 15, 16, 17, 34, 36, 72, 144,
                                           360, 500, 578));

TEST(FftPlanStructure, StageRadicesMultiplyToLength) {
  for (int n : {2, 6, 12, 36, 72, 144, 360, 500, 97}) {
    const FftPlan plan(n);
    int prod = 1;
    for (int r : plan.stage_radices()) prod *= r;
    EXPECT_EQ(prod, n) << "n=" << n;
    EXPECT_EQ(plan.stage_count(),
              static_cast<int>(plan.stage_radices().size()));
  }
}

TEST(FftSharedPlan, SharedPlanMatchesFreshPlanBitwise) {
  // Plan construction is deterministic, so the process-wide shared plan
  // and a fresh plan must produce *bit-identical* transforms.
  for (int n : {72, 144, 500, 578}) {
    const FftPlan fresh(n);
    const std::shared_ptr<const FftPlan> shared = shared_plan(n);
    EXPECT_EQ(shared->size(), n);
    auto a = random_signal(n, 7000 + static_cast<std::uint64_t>(n));
    auto b = a;
    fresh.forward(a);
    shared->forward(b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].real(), b[i].real()) << "n=" << n << " k=" << i;
      EXPECT_EQ(a[i].imag(), b[i].imag()) << "n=" << n << " k=" << i;
    }
    fresh.inverse(a);
    shared->inverse(b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].real(), b[i].real()) << "n=" << n << " k=" << i;
      EXPECT_EQ(a[i].imag(), b[i].imag()) << "n=" << n << " k=" << i;
    }
  }
}

TEST(FftSharedPlan, SameLengthReturnsSameInstance) {
  const std::shared_ptr<const FftPlan> p1 = shared_plan(60);
  const std::shared_ptr<const FftPlan> p2 = shared_plan(60);
  EXPECT_EQ(p1.get(), p2.get());  // one cached instance, never rebuilt
  EXPECT_NE(shared_plan(72).get(), p1.get());
}

/// One forward transform plus one pair inverse of `x` on `plan`, written
/// into `out` (forward spectrum, then the two recovered real lines). The
/// pair inverse borrows the rank's complex buffer while its inner inverse
/// takes the separate gather buffer.
void forward_and_pair_inverse(const FftPlan& plan, std::vector<Complex> x,
                              std::vector<double>& out) {
  const auto n = x.size();
  plan.forward(x);
  std::vector<Complex> sy(n);
  for (std::size_t k = 0; k < n; ++k) sy[k] = x[(k * 7 + 3) % n];
  std::vector<double> rx(n), ry(n);
  plan.inverse_to_real_pair(x, sy, rx, ry);
  out.clear();
  for (const Complex& c : x) {
    out.push_back(c.real());
    out.push_back(c.imag());
  }
  out.insert(out.end(), rx.begin(), rx.end());
  out.insert(out.end(), ry.begin(), ry.end());
}

TEST(FftPlan, SharedPlanConcurrentTransformsBitIdentical) {
  // 578 = 2 * 17^2: two radix-17 generic stages. An immutable plan has no
  // scratch of its own, so four threads hammering one shared instance must
  // reproduce the single-thread results bit for bit.
  constexpr int kN = 578;
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  const std::shared_ptr<const FftPlan> plan = shared_plan(kN);

  std::vector<std::vector<Complex>> inputs;
  std::vector<std::vector<double>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_signal(kN, 9100 + static_cast<std::uint64_t>(t)));
    forward_and_pair_inverse(*plan, inputs.back(), expected[t]);
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> got;
      for (int it = 0; it < kIters; ++it) {
        forward_and_pair_inverse(*plan, inputs[t], got);
        const std::vector<double>& want = expected[t];
        if (got.size() != want.size() ||
            std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0)
        << "thread " << t << ": " << mismatches[t] << " of " << kIters
        << " transforms differ from the single-thread run";
  }
}

TEST(FlopModels, MonotoneAndOrdered) {
  EXPECT_GT(dft_flops(144), fft::FftPlan(144).flops());
  EXPECT_GT(convolution_flops(288), convolution_flops(144));
  EXPECT_GT(FftPlan(288).flops(), FftPlan(144).flops());
}

}  // namespace
}  // namespace agcm::fft
