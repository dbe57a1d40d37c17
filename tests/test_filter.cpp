// Tests for the polar filter: response properties, the convolution <-> FFT
// equivalence (the paper's equations (1)-(2)), the movement plans, and all
// four parallel variants against the serial reference across node meshes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "filter/bank.hpp"
#include "filter/implicit_zonal.hpp"
#include "filter/parallel.hpp"
#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace agcm::filter {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Array3D;
using grid::Decomp2D;
using grid::LatLonGrid;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

constexpr double kPi = std::numbers::pi;

TEST(Response, BoundsAndZonalMeanPreserved) {
  const int n = 144;
  for (FilterKind kind : {FilterKind::kStrong, FilterKind::kWeak}) {
    for (double lat_deg : {-89.0, -70.0, -50.0, 50.0, 70.0, 89.0}) {
      const auto line = response_line(kind, n, lat_deg * kPi / 180.0);
      EXPECT_DOUBLE_EQ(line[0], 1.0);  // wavenumber 0 untouched
      for (double s : line) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
      }
    }
  }
}

TEST(Response, IdentityEquatorwardOfCutoff) {
  const int n = 144;
  const auto strong = response_line(FilterKind::kStrong, n, 30.0 * kPi / 180.0);
  const auto weak = response_line(FilterKind::kWeak, n, 55.0 * kPi / 180.0);
  for (double s : strong) EXPECT_DOUBLE_EQ(s, 1.0);
  for (double s : weak) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(Response, StrongerTowardPolesAndHigherWavenumbers) {
  const int n = 144;
  const auto mid = response_line(FilterKind::kStrong, n, 55.0 * kPi / 180.0);
  const auto polar = response_line(FilterKind::kStrong, n, 85.0 * kPi / 180.0);
  // More damping near the pole.
  for (int s = 1; s <= n / 2; ++s)
    EXPECT_LE(polar[static_cast<std::size_t>(s)],
              mid[static_cast<std::size_t>(s)] + 1e-14);
  // Monotone non-increasing up to the Nyquist wavenumber.
  for (int s = 1; s < n / 2; ++s)
    EXPECT_LE(polar[static_cast<std::size_t>(s + 1)],
              polar[static_cast<std::size_t>(s)] + 1e-14);
}

TEST(Response, WeakIsWeakerThanStrong) {
  const int n = 144;
  const double lat = 75.0 * kPi / 180.0;
  const auto strong = response_line(FilterKind::kStrong, n, lat);
  const auto weak = response_line(FilterKind::kWeak, n, lat);
  for (int s = 1; s <= n / 2; ++s)
    EXPECT_GE(weak[static_cast<std::size_t>(s)],
              strong[static_cast<std::size_t>(s)] - 1e-14);
}

TEST(Response, ConjugateSymmetry) {
  const int n = 144;
  const auto line = response_line(FilterKind::kStrong, n, 80.0 * kPi / 180.0);
  for (int s = 1; s < n; ++s)
    EXPECT_DOUBLE_EQ(line[static_cast<std::size_t>(s)],
                     line[static_cast<std::size_t>(n - s)]);
}

TEST(Serial, ConvolutionEqualsFftFiltering) {
  // The paper's equivalence of equations (1) and (2).
  const int n = 144;
  const double lat = 82.0 * kPi / 180.0;
  const auto s_line = response_line(FilterKind::kStrong, n, lat);
  const auto kernel = kernel_from_response(s_line);
  const fft::FftPlan plan(n);

  Rng rng(31);
  std::vector<double> a(static_cast<std::size_t>(n));
  for (double& v : a) v = rng.uniform(-5.0, 5.0);
  std::vector<double> b = a;

  filter_line_fft(plan, a, s_line);
  filter_line_convolution(b, kernel);
  EXPECT_LT(max_abs_diff(a, b), 1e-10);
}

TEST(Serial, FilterDampsHighWavenumberPreservesMean) {
  const int n = 144;
  const double lat = 85.0 * kPi / 180.0;
  const auto s_line = response_line(FilterKind::kStrong, n, lat);
  const fft::FftPlan plan(n);
  std::vector<double> line(static_cast<std::size_t>(n));
  double mean_before = 0.0;
  for (int i = 0; i < n; ++i) {
    line[static_cast<std::size_t>(i)] =
        7.0 + std::cos(2.0 * kPi * 60.0 * i / n);  // mean + fast mode
    mean_before += line[static_cast<std::size_t>(i)];
  }
  filter_line_fft(plan, line, s_line);
  double mean_after = 0.0, wiggle = 0.0;
  for (int i = 0; i < n; ++i) {
    mean_after += line[static_cast<std::size_t>(i)];
    wiggle = std::max(wiggle, std::abs(line[static_cast<std::size_t>(i)] - 7.0));
  }
  EXPECT_NEAR(mean_after, mean_before, 1e-8);
  EXPECT_LT(wiggle, 0.05);  // the s=60 mode is almost annihilated at 85N
}

TEST(Serial, PairFilteringMatchesSingleLineFiltering) {
  // The two-for-one trick must give the same filtered lines even when the
  // two lines use different responses (strong at 80N paired with weak at
  // 65S, say).
  const int n = 144;
  const fft::FftPlan plan(n);
  const auto s_a = response_line(FilterKind::kStrong, n, 80.0 * kPi / 180.0);
  const auto s_b = response_line(FilterKind::kWeak, n, -65.0 * kPi / 180.0);
  Rng rng(41);
  std::vector<double> a(static_cast<std::size_t>(n)), b(a.size());
  for (double& v : a) v = rng.uniform(-3.0, 3.0);
  for (double& v : b) v = rng.uniform(-3.0, 3.0);
  auto a_pair = a, b_pair = b;
  filter_line_fft(plan, a, s_a);
  filter_line_fft(plan, b, s_b);
  filter_line_pair_fft(plan, a_pair, b_pair, s_a, s_b);
  EXPECT_LT(max_abs_diff(a, a_pair), 1e-11);
  EXPECT_LT(max_abs_diff(b, b_pair), 1e-11);
}

TEST(Serial, PairFlopsAreCheaperThanTwoSingles) {
  EXPECT_LT(fft_filter_pair_flops(144), 2.0 * fft_filter_flops(144));
}

TEST(Serial, ChunkConvolutionMatchesFull) {
  const int n = 48;
  const auto s_line = response_line(FilterKind::kStrong, n, 80.0 * kPi / 180.0);
  const auto kernel = kernel_from_response(s_line);
  Rng rng(77);
  std::vector<double> line(static_cast<std::size_t>(n));
  for (double& v : line) v = rng.uniform(-1.0, 1.0);
  std::vector<double> full = line;
  filter_line_convolution(full, kernel);
  std::vector<double> chunk(10);
  filter_chunk_convolution(line, kernel, 17, 10, chunk);
  for (int c = 0; c < 10; ++c)
    EXPECT_NEAR(chunk[static_cast<std::size_t>(c)],
                full[static_cast<std::size_t>(17 + c)], 1e-11);
}

TEST(Bank, LinesCoverExactlyTheFilteredRows) {
  const LatLonGrid grid(48, 30, 2);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                               {"b", FilterKind::kWeak}});
  EXPECT_EQ(bank.nvars(), 2);
  for (int j = 0; j < grid.nlat(); ++j) {
    EXPECT_EQ(bank.filtered(0, j), grid.poleward_of(j, 45.0));
    EXPECT_EQ(bank.filtered(1, j), grid.poleward_of(j, 60.0));
  }
  const auto expected =
      (bank.rows(0).size() + bank.rows(1).size()) * static_cast<std::size_t>(2);
  EXPECT_EQ(bank.lines().size(), expected);
  // lines_of partitions lines() by variable.
  EXPECT_EQ(bank.lines_of(0).size() + bank.lines_of(1).size(),
            bank.lines().size());
}

TEST(Bank, TablesMatchDirectEvaluation) {
  const LatLonGrid grid(48, 30, 1);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  for (int j : bank.rows(0)) {
    const auto line = response_line(FilterKind::kStrong, 48, grid.lat_center(j));
    const auto banked = bank.response(0, j);
    for (std::size_t s = 0; s < line.size(); ++s)
      EXPECT_DOUBLE_EQ(banked[s], line[s]);
  }
}

// --- parallel variants vs serial reference across meshes -------------------

struct VariantCase {
  FilterAlgorithm algorithm;
  int rows;
  int cols;
};

class VariantSweep : public ::testing::TestWithParam<VariantCase> {};

/// Runs the full parallel filter on a deterministic global field and
/// compares every point against the serial reference.
TEST_P(VariantSweep, MatchesSerialReference) {
  const auto param = GetParam();
  const int nlon = 48, nlat = 24, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const std::vector<FilteredVariable> vars = {{"s1", FilterKind::kStrong},
                                              {"w1", FilterKind::kWeak},
                                              {"s2", FilterKind::kStrong}};
  const FilterBank bank(grid, vars);

  auto value = [&](int v, int gi, int gj, int k) {
    return std::sin(0.37 * gi + 1.1 * v) * std::cos(0.21 * gj) + 0.13 * k +
           0.01 * gi * (v + 1);
  };

  // Serial reference on the global field.
  std::vector<std::vector<double>> reference(vars.size());
  {
    const fft::FftPlan plan(nlon);
    for (std::size_t v = 0; v < vars.size(); ++v) {
      auto& field = reference[v];
      field.resize(static_cast<std::size_t>(nlon) * nlat * nlev);
      for (int k = 0; k < nlev; ++k)
        for (int gj = 0; gj < nlat; ++gj)
          for (int gi = 0; gi < nlon; ++gi)
            field[static_cast<std::size_t>(gi) +
                  static_cast<std::size_t>(nlon) *
                      (static_cast<std::size_t>(gj) +
                       static_cast<std::size_t>(nlat) * k)] =
                value(static_cast<int>(v), gi, gj, k);
      for (int k = 0; k < nlev; ++k)
        for (int gj = 0; gj < nlat; ++gj) {
          if (!bank.filtered(static_cast<int>(v), gj)) continue;
          std::span<double> line(
              field.data() + static_cast<std::size_t>(nlon) *
                                 (static_cast<std::size_t>(gj) +
                                  static_cast<std::size_t>(nlat) * k),
              static_cast<std::size_t>(nlon));
          filter_line_fft(plan, line, bank.response(static_cast<int>(v), gj));
        }
    }
  }

  Machine machine(MachineProfile::intel_paragon());
  machine.set_recv_timeout_ms(20'000);
  machine.run(param.rows * param.cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, param.rows, param.cols);
    const Decomp2D decomp(nlon, nlat, param.rows, param.cols);
    const auto box = decomp.box(mesh.coord());

    std::vector<Array3D<double>> fields;
    std::vector<Array3D<double>*> ptrs;
    fields.reserve(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      fields.emplace_back(box.ni, box.nj, nlev, 1);
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            fields.back()(i, j, k) =
                value(static_cast<int>(v), box.i0 + i, box.j0 + j, k);
    }
    for (auto& f : fields) ptrs.push_back(&f);

    auto filter = make_filter(param.algorithm, mesh, decomp, bank);
    filter->apply(ptrs);

    const double tol =
        param.algorithm == FilterAlgorithm::kConvolutionRing ||
                param.algorithm == FilterAlgorithm::kConvolutionTree ||
                param.algorithm == FilterAlgorithm::kConvolutionPartitioned
            ? 1e-9   // convolution accumulates in a different order
            : 1e-10;
    for (std::size_t v = 0; v < vars.size(); ++v)
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i) {
            const double expected =
                reference[v][static_cast<std::size_t>(box.i0 + i) +
                             static_cast<std::size_t>(nlon) *
                                 (static_cast<std::size_t>(box.j0 + j) +
                                  static_cast<std::size_t>(nlat) * k)];
            EXPECT_NEAR(fields[v](i, j, k), expected, tol)
                << algorithm_name(param.algorithm) << " mesh " << param.rows
                << "x" << param.cols << " v=" << v << " g=("
                << box.i0 + i << "," << box.j0 + j << "," << k << ")";
          }
  });
}

std::vector<VariantCase> variant_cases() {
  std::vector<VariantCase> cases;
  for (auto algorithm :
       {FilterAlgorithm::kConvolutionRing, FilterAlgorithm::kConvolutionTree,
        FilterAlgorithm::kFftTranspose, FilterAlgorithm::kFftBalanced,
        FilterAlgorithm::kConvolutionPartitioned}) {
    for (auto [r, c] : {std::pair{1, 1}, std::pair{1, 4}, std::pair{2, 2},
                        std::pair{3, 2}, std::pair{4, 3}, std::pair{6, 1}}) {
      cases.push_back({algorithm, r, c});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllMeshes, VariantSweep,
                         ::testing::ValuesIn(variant_cases()));

// --- convolution patterns: summation order pinned bit for bit --------------

/// The ring's summation order written out as an independent oracle: output
/// i (owned by column `own`) is the sum over the ring's hops of each
/// visiting chunk's partial sum, starting from the owner's chunk, with one
/// `mod nlon` per multiply-add.
double ring_reference(std::span<const double> line,
                      std::span<const double> kernel,
                      const grid::Partition1D& lon, int own, int i) {
  const int nlon = static_cast<int>(line.size());
  const int ncols = lon.blocks();
  double out = 0.0;
  for (int r = 0; r < ncols; ++r) {
    const int src_col = (own + r) % ncols;
    const int src_i0 = lon.start(src_col);
    double acc = 0.0;
    for (int g = 0; g < lon.size(src_col); ++g) {
      int lag = i - (src_i0 + g);
      lag %= nlon;
      if (lag < 0) lag += nlon;
      acc += kernel[static_cast<std::size_t>(lag)] *
             line[static_cast<std::size_t>(src_i0 + g)];
    }
    out += acc;
  }
  return out;
}

/// The tree's (and the serial filter's) summation order written out on its
/// own: output i is one sum over the kernel's lags s ascending, with one
/// `mod nlon` per multiply-add. Not filter_chunk_convolution, which the
/// tree itself runs.
double tree_reference(std::span<const double> line,
                      std::span<const double> kernel, int i) {
  const int nlon = static_cast<int>(line.size());
  double out = 0.0;
  for (int s = 0; s < nlon; ++s) {
    int src = (i - s) % nlon;
    if (src < 0) src += nlon;
    out += kernel[static_cast<std::size_t>(s)] *
           line[static_cast<std::size_t>(src)];
  }
  return out;
}

class ConvolutionBitExact : public ::testing::TestWithParam<VariantCase> {};

/// Uneven column widths (nlon 50 on 3 or 7 columns) put the ring's wrap at
/// different offsets inside a chunk; 1 column has no hop at all. Several
/// variables with different row sets check that each variable's lines are
/// convolved with its own kernels, and that bands with no lines for a
/// variable stay out of that variable's exchange.
TEST_P(ConvolutionBitExact, MatchesTheSerialOrder) {
  const auto param = GetParam();
  const int nlon = 50, nlat = 24, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const std::vector<FilteredVariable> vars = {{"s1", FilterKind::kStrong},
                                              {"w1", FilterKind::kWeak},
                                              {"s2", FilterKind::kStrong}};
  const FilterBank bank(grid, vars);
  const Decomp2D global(nlon, nlat, param.rows, param.cols);
  const auto at = [&](int v, int gi, int gj, int k) {
    return static_cast<std::size_t>(gi) +
           static_cast<std::size_t>(nlon) *
               (static_cast<std::size_t>(gj) +
                static_cast<std::size_t>(nlat) *
                    (static_cast<std::size_t>(k) +
                     static_cast<std::size_t>(nlev) * v));
  };
  std::vector<double> input(vars.size() * static_cast<std::size_t>(nlon) *
                            nlat * nlev);
  Rng rng(2024);
  for (double& x : input) x = rng.uniform(-1.0, 1.0);

  std::vector<double> filtered(input.size());
  Machine machine(MachineProfile::intel_paragon());
  machine.set_recv_timeout_ms(20'000);
  machine.run(param.rows * param.cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, param.rows, param.cols);
    const Decomp2D decomp(nlon, nlat, param.rows, param.cols);
    const auto box = decomp.box(mesh.coord());
    std::vector<Array3D<double>> fields;
    std::vector<Array3D<double>*> ptrs;
    fields.reserve(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      fields.emplace_back(box.ni, box.nj, nlev, 1);
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            fields.back()(i, j, k) = input[at(static_cast<int>(v), box.i0 + i,
                                              box.j0 + j, k)];
    }
    for (auto& f : fields) ptrs.push_back(&f);
    make_filter(param.algorithm, mesh, decomp, bank)->apply(ptrs);
    for (std::size_t v = 0; v < vars.size(); ++v)
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            filtered[at(static_cast<int>(v), box.i0 + i, box.j0 + j, k)] =
                fields[v](i, j, k);
  });

  const auto& lon = global.lon_partition();
  std::size_t checked = 0;
  for (const LineKey& key : bank.lines()) {
    const std::span<const double> line(&input[at(key.var, 0, key.j, key.k)],
                                       static_cast<std::size_t>(nlon));
    const auto kernel = bank.kernel(key.var, key.j);
    std::vector<double> serial(line.begin(), line.end());
    filter_line_convolution(serial, kernel);
    for (int col = 0; col < param.cols; ++col)
      for (int i = lon.start(col); i < lon.end(col); ++i, ++checked) {
        const double tree = tree_reference(line, kernel, i);
        // The serial filter shares the tree's order.
        ASSERT_EQ(serial[static_cast<std::size_t>(i)], tree)
            << "serial v=" << key.var << " j=" << key.j << " k=" << key.k
            << " i=" << i;
        const double expected =
            param.algorithm == FilterAlgorithm::kConvolutionRing
                ? ring_reference(line, kernel, lon, col, i)
                : tree;
        ASSERT_EQ(filtered[at(key.var, i, key.j, key.k)], expected)
            << algorithm_name(param.algorithm) << " mesh " << param.rows
            << "x" << param.cols << " v=" << key.var << " j=" << key.j
            << " k=" << key.k << " i=" << i;
      }
  }
  EXPECT_EQ(checked, bank.lines().size() * static_cast<std::size_t>(nlon));
}

INSTANTIATE_TEST_SUITE_P(
    RingAndTree, ConvolutionBitExact,
    ::testing::Values(VariantCase{FilterAlgorithm::kConvolutionRing, 1, 1},
                      VariantCase{FilterAlgorithm::kConvolutionRing, 2, 3},
                      VariantCase{FilterAlgorithm::kConvolutionRing, 3, 7},
                      VariantCase{FilterAlgorithm::kConvolutionTree, 1, 1},
                      VariantCase{FilterAlgorithm::kConvolutionTree, 2, 3},
                      VariantCase{FilterAlgorithm::kConvolutionTree, 3, 7}));

TEST(BalancedPlan, EveryRowHoldsNearIdealShare) {
  // Figure 2's guarantee — equation (3): after redistribution each
  // processor row holds ~ sum(R_j)/M lines.
  const int nlon = 48, nlat = 24, nlev = 3;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                               {"b", FilterKind::kWeak},
                               {"c", FilterKind::kStrong}});
  for (auto [rows, cols] : {std::pair{2, 2}, std::pair{4, 3}, std::pair{6, 1},
                            std::pair{3, 4}}) {
    Machine machine(MachineProfile::ideal());
    machine.set_recv_timeout_ms(10'000);
    machine.run(rows * cols, [&, rows = rows, cols = cols](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, rows, cols);
      const Decomp2D decomp(nlon, nlat, rows, cols);
      const BalancedFilterPlan plan(mesh, decomp, bank);
      EXPECT_LE(plan.post_balance_ratio(), 1.0 + static_cast<double>(rows) /
                                                     static_cast<double>(
                                                         bank.lines().size()) +
                                               1e-9);
      const double ideal =
          static_cast<double>(bank.lines().size()) / rows;
      EXPECT_LE(std::abs(static_cast<double>(plan.held_lines().size()) - ideal),
                1.0);
    });
  }
}

/// The plan's line order (one counting pass by source row) against the
/// stable sort by (source row, bank position) it replaces: the same
/// my_lines, held_lines and block offsets on every rank, for 1, 3 and 8
/// mesh rows and for latitude counts the rows do and do not divide.
TEST(BalancedPlan, CountingOrderMatchesStableSortReference) {
  const int nlon = 24, nlev = 2, ncols = 2;
  for (auto [rows, nlat] : {std::pair{1, 24}, std::pair{3, 24},
                            std::pair{8, 24}, std::pair{3, 20},
                            std::pair{8, 30}}) {
    SCOPED_TRACE(::testing::Message() << "rows=" << rows << " nlat=" << nlat);
    const LatLonGrid grid(nlon, nlat, nlev);
    const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                                 {"b", FilterKind::kWeak}});
    Machine machine(MachineProfile::ideal());
    machine.set_recv_timeout_ms(10'000);
    machine.run(rows * ncols, [&, rows = rows, nlat = nlat](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, rows, ncols);
      const Decomp2D decomp(nlon, nlat, rows, ncols);
      const BalancedFilterPlan plan(mesh, decomp, bank);

      struct Tagged {
        LineKey key;
        int src;
        std::size_t pos;
      };
      std::vector<Tagged> order;
      for (std::size_t pos = 0; pos < bank.lines().size(); ++pos) {
        const LineKey& line = bank.lines()[pos];
        order.push_back({line, decomp.lat_partition().owner(line.j), pos});
      }
      std::stable_sort(order.begin(), order.end(),
                       [](const Tagged& a, const Tagged& b) {
                         return a.src < b.src;
                       });
      const std::size_t total = order.size();
      const int myrow = mesh.coord().row;
      const auto ni = static_cast<std::size_t>(decomp.box(mesh.coord()).ni);
      std::vector<LineKey> mine, held;
      std::vector<std::size_t> send(static_cast<std::size_t>(rows) + 1, 0),
          recv(static_cast<std::size_t>(rows) + 1, 0);
      for (std::size_t q = 0; q < total; ++q) {
        const auto dst = static_cast<int>(q * static_cast<std::size_t>(rows) /
                                          total);
        if (order[q].src == myrow) {
          mine.push_back(order[q].key);
          send[static_cast<std::size_t>(dst) + 1] += ni;
        }
        if (dst == myrow) {
          held.push_back(order[q].key);
          recv[static_cast<std::size_t>(order[q].src) + 1] += ni;
        }
      }
      for (std::size_t r = 1; r < send.size(); ++r) {
        send[r] += send[r - 1];
        recv[r] += recv[r - 1];
      }
      auto same_keys = [](const std::vector<LineKey>& a,
                          const std::vector<LineKey>& b) {
        return a.size() == b.size() &&
               std::equal(a.begin(), a.end(), b.begin(),
                          [](const LineKey& x, const LineKey& y) {
                            return x.var == y.var && x.j == y.j && x.k == y.k;
                          });
      };
      EXPECT_TRUE(same_keys(plan.my_lines(), mine));
      EXPECT_TRUE(same_keys(plan.held_lines(), held));
      EXPECT_TRUE(std::ranges::equal(plan.send_offsets(), send));
      EXPECT_TRUE(std::ranges::equal(plan.recv_offsets(), recv));
    });
  }
}

TEST(BalancedPlan, RedistributeRestoreRoundTrip) {
  const int nlon = 24, nlat = 16, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 4, 1);
    const Decomp2D decomp(nlon, nlat, 4, 1);
    const BalancedFilterPlan plan(mesh, decomp, bank);
    const auto box = decomp.box(mesh.coord());
    std::vector<double> chunks(plan.my_lines().size() *
                               static_cast<std::size_t>(box.ni));
    Rng rng(static_cast<std::uint64_t>(world.rank()) + 17);
    for (double& v : chunks) v = rng.uniform(-1.0, 1.0);
    std::vector<double> held(plan.held_chunk_elems());
    EXPECT_EQ(held.size(),
              plan.held_lines().size() * static_cast<std::size_t>(box.ni));
    plan.redistribute_into(mesh, chunks, held);
    std::vector<double> restored(plan.my_chunk_elems());
    ASSERT_EQ(restored.size(), chunks.size());
    plan.restore_into(mesh, held, restored);
    for (std::size_t i = 0; i < chunks.size(); ++i)
      EXPECT_DOUBLE_EQ(restored[i], chunks[i]);
  });
}

TEST(RowTranspose, ToLinesToChunksRoundTrip) {
  const int nlon = 20, nlat = 8, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 1, 4);
    const Decomp2D decomp(nlon, nlat, 1, 4);
    const auto box = decomp.box(mesh.coord());
    std::vector<LineKey> lines;
    for (int j : bank.rows(0))
      for (int k = 0; k < nlev; ++k) lines.push_back({0, j, k});
    const RowTransposePlan plan(mesh, decomp, lines);

    std::vector<double> chunks(lines.size() * static_cast<std::size_t>(box.ni));
    // Global value encodes (line index, global i) so assembled lines can be
    // checked exactly.
    for (std::size_t q = 0; q < lines.size(); ++q)
      for (int i = 0; i < box.ni; ++i)
        chunks[q * static_cast<std::size_t>(box.ni) +
               static_cast<std::size_t>(i)] =
            1000.0 * static_cast<double>(q) + (box.i0 + i);

    std::vector<double> full(plan.line_elems());
    ASSERT_EQ(full.size(),
              plan.owned_lines().size() * static_cast<std::size_t>(nlon));
    plan.to_lines_into(mesh, chunks, full);
    // Find which global line indexes I own and verify assembly.
    std::size_t p = 0;
    for (std::size_t q = 0; q < lines.size(); ++q) {
      if (static_cast<int>(q % 4) != mesh.coord().col) continue;
      for (int gi = 0; gi < nlon; ++gi)
        EXPECT_DOUBLE_EQ(full[p * static_cast<std::size_t>(nlon) +
                              static_cast<std::size_t>(gi)],
                         1000.0 * static_cast<double>(q) + gi);
      ++p;
    }

    std::vector<double> back(plan.chunk_elems());
    ASSERT_EQ(back.size(), chunks.size());
    plan.to_chunks_into(mesh, full, back);
    for (std::size_t i = 0; i < chunks.size(); ++i)
      EXPECT_DOUBLE_EQ(back[i], chunks[i]);
  });
}

TEST(TransposeFilter, SetupCostOnlyForTheBalancedStage) {
  // The Figure-2 set-up (bookkeeping + cross-node agreement check) is paid
  // once, in the constructor; the transpose-only algorithms cost nothing to
  // build in virtual time.
  const LatLonGrid grid(24, 16, 2);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  for (const FilterAlgorithm algorithm :
       {FilterAlgorithm::kFftBalanced, FilterAlgorithm::kFftTranspose,
        FilterAlgorithm::kConvolutionPartitioned}) {
    Machine machine(MachineProfile::intel_paragon());
    machine.set_recv_timeout_ms(10'000);
    machine.run(4, [&](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, 2, 2);
      const Decomp2D decomp(24, 16, 2, 2);
      const double t0 = world.now();
      const auto filter = make_filter(algorithm, mesh, decomp, bank);
      const double cost = world.now() - t0;
      if (algorithm == FilterAlgorithm::kFftBalanced) {
        EXPECT_GT(cost, 0.0);
      } else {
        EXPECT_EQ(cost, 0.0) << algorithm_name(algorithm);
      }
    });
  }
}

// --- implicit-zonal extension -----------------------------------------------

TEST(ImplicitZonal, ResponseDampsLikeAnImplicitOperator) {
  // S(0) = 1; monotone decreasing to the Nyquist wavenumber; in (0, 1].
  const double k = 5.0;
  const int n = 48;
  EXPECT_DOUBLE_EQ(ImplicitZonalFilter::response(k, 0, n), 1.0);
  double prev = 1.0;
  for (int s = 1; s <= n / 2; ++s) {
    const double r = ImplicitZonalFilter::response(k, s, n);
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, prev + 1e-14);
    prev = r;
  }
  EXPECT_NEAR(ImplicitZonalFilter::response(k, n / 2, n), 1.0 / (1 + 4 * k),
              1e-12);
}

TEST(ImplicitZonal, PreservesZonalMeanAndDampsNoise) {
  const int nlon = 48, nlat = 24, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::cray_t3d());
  machine.set_recv_timeout_ms(20'000);
  machine.run(8, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 4);
    const Decomp2D decomp(nlon, nlat, 2, 4);
    const auto box = decomp.box(mesh.coord());
    Array3D<double> field(box.ni, box.nj, nlev, 1);
    // Mean 5 plus Nyquist-frequency noise.
    for (int k = 0; k < nlev; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i)
          field(i, j, k) = 5.0 + ((box.i0 + i) % 2 == 0 ? 1.0 : -1.0);

    auto filter =
        make_filter(FilterAlgorithm::kImplicitZonal, mesh, decomp, bank);
    Array3D<double>* fields[] = {&field};
    filter->apply(fields);

    for (int k = 0; k < nlev; ++k) {
      for (int j = 0; j < box.nj; ++j) {
        const int gj = box.j0 + j;
        double mean = 0.0, wiggle = 0.0;
        for (int i = 0; i < box.ni; ++i) {
          mean += field(i, j, k);
          wiggle = std::max(wiggle, std::abs(field(i, j, k) - 5.0));
        }
        // Zonal mean preserved everywhere (chunk mean equals 5 because the
        // filtered result is mean + damped alternating mode).
        EXPECT_NEAR(mean / box.ni, 5.0, 1e-9);
        if (bank.filtered(0, gj)) {
          EXPECT_LT(wiggle, 0.15);  // Nyquist mode strongly damped
        } else {
          EXPECT_NEAR(wiggle, 1.0, 1e-12);  // untouched outside the band
        }
      }
    }
  });
}

TEST(ImplicitZonal, DecompositionInvariant) {
  const int nlon = 36, nlat = 16, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                               {"b", FilterKind::kWeak}});
  auto run = [&](int rows, int cols) {
    std::vector<double> out(static_cast<std::size_t>(nlon) * nlat * nlev *
                            2);
    Machine machine(MachineProfile::ideal());
    machine.set_recv_timeout_ms(20'000);
    machine.run(rows * cols, [&](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, rows, cols);
      const Decomp2D decomp(nlon, nlat, rows, cols);
      const auto box = decomp.box(mesh.coord());
      std::vector<Array3D<double>> fields;
      std::vector<Array3D<double>*> ptrs;
      for (int v = 0; v < 2; ++v) {
        fields.emplace_back(box.ni, box.nj, nlev, 1);
        for (int k = 0; k < nlev; ++k)
          for (int j = 0; j < box.nj; ++j)
            for (int i = 0; i < box.ni; ++i)
              fields.back()(i, j, k) = std::sin(0.5 * (box.i0 + i) + v) +
                                       0.1 * (box.j0 + j) + 0.2 * k;
      }
      for (auto& f : fields) ptrs.push_back(&f);
      auto filter =
          make_filter(FilterAlgorithm::kImplicitZonal, mesh, decomp, bank);
      filter->apply(ptrs);
      for (int v = 0; v < 2; ++v)
        for (int k = 0; k < nlev; ++k)
          for (int j = 0; j < box.nj; ++j)
            for (int i = 0; i < box.ni; ++i)
              out[static_cast<std::size_t>(v) +
                  2 * (static_cast<std::size_t>(box.i0 + i) +
                       static_cast<std::size_t>(nlon) *
                           (static_cast<std::size_t>(box.j0 + j) +
                            static_cast<std::size_t>(nlat) * k))] =
                  fields[static_cast<std::size_t>(v)](i, j, k);
    });
    return out;
  };
  const auto serial = run(1, 1);
  const auto parallel = run(2, 3);
  EXPECT_LT(max_abs_diff(serial, parallel), 1e-9);
}

TEST(Factory, WrongFieldCountThrows) {
  const LatLonGrid grid(24, 16, 2);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(
      machine.run(1,
                  [&](RankContext& ctx) {
                    Communicator world(ctx);
                    Mesh2D mesh(world, 1, 1);
                    const Decomp2D decomp(24, 16, 1, 1);
                    auto filter = make_filter(FilterAlgorithm::kFftTranspose,
                                              mesh, decomp, bank);
                    filter->apply({});  // bank has one variable
                  }),
      ConfigError);
}

}  // namespace
}  // namespace agcm::filter
