// Tests for the grid library: arrays, geometry, partitions (property-swept)
// and the halo exchange across mesh shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <tuple>
#include <utility>

#include "comm/mesh2d.hpp"
#include "grid/array3d.hpp"
#include "grid/decomp.hpp"
#include "grid/halo.hpp"
#include "grid/latlon.hpp"
#include "simnet/machine.hpp"

namespace agcm::grid {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

TEST(Array3D, IndexingAndFill) {
  Array3D<double> a(4, 3, 2, 1);
  a.fill(1.0);
  a(0, 0, 0) = 5.0;
  a(-1, -1, 0) = 7.0;  // ghost corner
  a(3, 2, 1) = 9.0;
  EXPECT_DOUBLE_EQ(a(0, 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(a(-1, -1, 0), 7.0);
  EXPECT_DOUBLE_EQ(a(3, 2, 1), 9.0);
  EXPECT_DOUBLE_EQ(a(1, 1, 1), 1.0);
}

TEST(Array3D, RowIsContiguousInterior) {
  Array3D<double> a(5, 2, 2, 1);
  for (int i = 0; i < 5; ++i) a(i, 1, 1) = 10.0 + i;
  const auto row = a.row(1, 1);
  ASSERT_EQ(row.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(i)], 10.0 + i);
  EXPECT_EQ(&row[1], &row[0] + 1);
}

TEST(Array3D, PackUnpackRoundTripExcludesGhosts) {
  Array3D<double> a(3, 2, 2, 1);
  double v = 0.0;
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 3; ++i) a(i, j, k) = v++;
  a(-1, 0, 0) = 999.0;
  const auto packed = a.pack_interior();
  EXPECT_EQ(packed.size(), a.interior_size());
  Array3D<double> b(3, 2, 2, 1);
  b.unpack_interior(packed);
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(b(i, j, k), a(i, j, k));
  EXPECT_DOUBLE_EQ(b(-1, 0, 0), 0.0);  // ghosts untouched
}

TEST(Array3D, StorageIsCacheLineAlignedAndGhostRowsPadded) {
  // Base pointer 64-byte aligned for any shape.
  for (int ni : {1, 3, 7, 144}) {
    Array3D<double> a(ni, 2, 2, 1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.raw().data()) %
                  Array3D<double>::kAlignBytes,
              0u)
        << "ni=" << ni;
    // Ghosted arrays: j-stride rounded up to a whole cache line and every
    // backing row start stays aligned.
    EXPECT_EQ(a.stride_j() % (Array3D<double>::kAlignBytes / sizeof(double)),
              0u);
    EXPECT_GE(a.stride_j(), static_cast<std::size_t>(ni) + 2);
  }
  // Ghost-free arrays are exact (contiguous interior, no padding).
  Array3D<double> b(5, 3, 2, 0);
  EXPECT_TRUE(b.contiguous_interior());
  EXPECT_EQ(b.stride_j(), 5u);
  EXPECT_EQ(b.raw().size(), b.interior_size());
  Array3D<double> c(5, 3, 2, 1);
  EXPECT_FALSE(c.contiguous_interior());
}

TEST(Array3D, FieldViewMatchesAtAccessor) {
  Array3D<double> a(5, 4, 3, 2);
  double v = 0.0;
  for (int k = 0; k < 3; ++k)
    for (int j = -2; j < 6; ++j)
      for (int i = -2; i < 7; ++i) a(i, j, k) = v += 0.5;
  const FieldView fv = a.view();
  const ConstFieldView cv = std::as_const(a).view();
  EXPECT_EQ(fv.ni, 5);
  EXPECT_EQ(fv.nj, 4);
  EXPECT_EQ(fv.nk, 3);
  EXPECT_EQ(fv.ghost, 2);
  for (int k = 0; k < 3; ++k)
    for (int j = -2; j < 6; ++j) {
      const double* row = fv.row(j, k);
      EXPECT_EQ(row, cv.row(j, k));
      for (int i = -2; i < 7; ++i) {
        EXPECT_EQ(&row[i], &a.at(i, j, k)) << i << "," << j << "," << k;
        EXPECT_EQ(fv.at(i, j, k), a.at(i, j, k));
      }
    }
}

class PackGhostSweep : public ::testing::TestWithParam<int> {};

TEST_P(PackGhostSweep, PackUnpackRoundTripIsBitExactAllGhosts) {
  const int g = GetParam();
  Array3D<double> a(7, 5, 3, g);
  // Distinct interior values plus ghost poison that must never leak.
  double v = 0.25;
  for (int k = 0; k < 3; ++k)
    for (int j = -g; j < 5 + g; ++j)
      for (int i = -g; i < 7 + g; ++i)
        a(i, j, k) = (i >= 0 && i < 7 && j >= 0 && j < 5) ? (v += 1.0 / 3.0)
                                                          : -777.0;
  const auto packed = a.pack_interior();
  ASSERT_EQ(packed.size(), a.interior_size());
  // i-fastest order, bit exact.
  std::size_t pos = 0;
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 5; ++j)
      for (int i = 0; i < 7; ++i, ++pos)
        EXPECT_EQ(std::memcmp(&packed[pos], &a(i, j, k), sizeof(double)), 0);
  Array3D<double> b(7, 5, 3, g);
  b.fill(0.0);
  b.unpack_interior(packed);
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 5; ++j)
      for (int i = 0; i < 7; ++i) EXPECT_EQ(b(i, j, k), a(i, j, k));
  if (g > 0) {
    EXPECT_EQ(b(-g, -g, 0), 0.0);  // ghosts untouched
  }
}

INSTANTIATE_TEST_SUITE_P(Ghost, PackGhostSweep, ::testing::Values(0, 1, 2));

TEST(LatLon, PaperGridDimensions) {
  const auto g = LatLonGrid::paper_9layer();
  EXPECT_EQ(g.nlon(), 144);
  EXPECT_EQ(g.nlat(), 90);
  EXPECT_EQ(g.nlev(), 9);
  EXPECT_NEAR(g.dlon_rad() * 180.0 / std::numbers::pi, 2.5, 1e-12);
  EXPECT_NEAR(g.dlat_rad() * 180.0 / std::numbers::pi, 2.0, 1e-12);
}

TEST(LatLon, LatitudesSymmetricAboutEquator) {
  const auto g = LatLonGrid::paper_9layer();
  for (int j = 0; j < g.nlat(); ++j)
    EXPECT_NEAR(g.lat_center(j), -g.lat_center(g.nlat() - 1 - j), 1e-12);
  EXPECT_NEAR(g.lat_vface(0), -std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(g.lat_vface(g.nlat()), std::numbers::pi / 2, 1e-12);
}

TEST(LatLon, PolarFaceCosineIsZero) {
  const auto g = LatLonGrid::paper_9layer();
  EXPECT_DOUBLE_EQ(g.cos_vface(0), 0.0);
  EXPECT_DOUBLE_EQ(g.cos_vface(g.nlat()), 0.0);
}

TEST(LatLon, ZonalSpacingShrinksTowardPoles) {
  const auto g = LatLonGrid::paper_9layer();
  EXPECT_GT(g.dx_m(45), g.dx_m(80));
  EXPECT_GT(g.dx_m(80), g.dx_m(89));
  EXPECT_GT(g.dx_m(89), 0.0);
}

TEST(LatLon, CellAreasSumToSphere) {
  const auto g = LatLonGrid::paper_9layer();
  double total = 0.0;
  for (int j = 0; j < g.nlat(); ++j) total += g.cell_area_m2(j) * g.nlon();
  const double r = g.planet().radius_m;
  EXPECT_NEAR(total, 4.0 * std::numbers::pi * r * r, 1e-3 * total);
}

TEST(LatLon, FilterBands) {
  const auto g = LatLonGrid::paper_9layer();
  int strong = 0, weak = 0;
  for (int j = 0; j < g.nlat(); ++j) {
    if (g.poleward_of(j, 45.0)) ++strong;
    if (g.poleward_of(j, 60.0)) ++weak;
  }
  // "about one half" and "about one third" of the latitudes.
  EXPECT_EQ(strong, 46);
  EXPECT_EQ(weak, 30);
}

TEST(LatLon, RejectsBadDimensions) {
  EXPECT_THROW(LatLonGrid(2, 10, 1), ConfigError);
  EXPECT_THROW(LatLonGrid(16, 1, 1), ConfigError);
  EXPECT_THROW(LatLonGrid(16, 10, 0), ConfigError);
}

// --- partition properties over a sweep of (n, p) ---------------------------

class PartitionSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PartitionSweep, BlocksTileExactly) {
  const auto [n, p] = GetParam();
  const Partition1D part(n, p);
  int covered = 0;
  for (int b = 0; b < p; ++b) {
    EXPECT_EQ(part.start(b), covered);
    EXPECT_GT(part.size(b), 0);
    covered += part.size(b);
  }
  EXPECT_EQ(covered, n);
}

TEST_P(PartitionSweep, SizesDifferByAtMostOne) {
  const auto [n, p] = GetParam();
  const Partition1D part(n, p);
  int lo = n, hi = 0;
  for (int b = 0; b < p; ++b) {
    lo = std::min(lo, part.size(b));
    hi = std::max(hi, part.size(b));
  }
  EXPECT_LE(hi - lo, 1);
}

TEST_P(PartitionSweep, OwnerIsConsistentWithRanges) {
  const auto [n, p] = GetParam();
  const Partition1D part(n, p);
  for (int g = 0; g < n; ++g) {
    const int b = part.owner(g);
    EXPECT_GE(g, part.start(b));
    EXPECT_LT(g, part.end(b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionSweep,
    ::testing::Values(std::pair{144, 30}, std::pair{144, 18}, std::pair{90, 8},
                      std::pair{90, 14}, std::pair{90, 9}, std::pair{7, 7},
                      std::pair{10, 3}, std::pair{100, 1}, std::pair{5, 4}));

TEST(Decomp2D, PaperMeshes) {
  // The paper's 8 x 30 mesh over the 144 x 90 grid.
  const Decomp2D d(144, 90, 8, 30);
  const auto box = d.box({0, 0});
  EXPECT_EQ(box.ni, 5);  // 144 = 24*5 + 6*4 -> first 24 columns get 5
  EXPECT_EQ(box.nj, 12);  // 90 = 2*12 + 6*11
  const auto owner = d.owner(143, 89);
  EXPECT_EQ(owner.row, 7);
  EXPECT_EQ(owner.col, 29);
}

TEST(Decomp2D, RejectsMoreBlocksThanPoints) {
  EXPECT_THROW(Decomp2D(4, 4, 1, 8), ConfigError);
}

// --- halo exchange ----------------------------------------------------------

class HaloSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HaloSweep, GhostsMatchGlobalField) {
  const auto [rows, cols] = GetParam();
  const int nlon = 12, nlat = 8, nlev = 2;
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, rows, cols);
    const Decomp2D decomp(nlon, nlat, rows, cols);
    const auto box = decomp.box(mesh.coord());
    Array3D<double> field(box.ni, box.nj, nlev, 1);
    auto value = [&](int gi, int gj, int k) {
      return 1000.0 * k + 10.0 * gj + ((gi + nlon) % nlon);
    };
    for (int k = 0; k < nlev; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i)
          field(i, j, k) = value(box.i0 + i, box.j0 + j, k);

    exchange_halo(mesh, field);

    for (int k = 0; k < nlev; ++k) {
      for (int j = -1; j <= box.nj; ++j) {
        const int gj = box.j0 + j;
        if (gj < 0 || gj >= nlat) continue;  // polar ghosts: untouched
        for (int i = -1; i <= box.ni; ++i) {
          const int gi = box.i0 + i;  // may wrap
          EXPECT_DOUBLE_EQ(field(i, j, k), value(gi, gj, k))
              << "mesh " << rows << "x" << cols << " at (" << i << "," << j
              << "," << k << ")";
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Meshes, HaloSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 3},
                                           std::pair{2, 1}, std::pair{2, 2},
                                           std::pair{2, 3}, std::pair{4, 2},
                                           std::pair{8, 1}, std::pair{2, 6}));

// --- strip program properties -----------------------------------------------

class StripSweep : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(StripSweep, PackUnpackRoundTripIsBitExact) {
  const auto [ni, nj, nk, g] = GetParam();
  Array3D<double> a(ni, nj, nk, g);
  // Distinct value per slot, ghosts included (strips may cover i-ghosts).
  auto raw = a.raw();
  for (std::size_t x = 0; x < raw.size(); ++x)
    raw[x] = 1.0 + 1e-3 * static_cast<double>(x) +
             1e-9 * static_cast<double>(x % 101);

  for (int width = 1; width <= g; ++width) {
    // Every admissible i-strip position, interior and ghost-adjacent.
    for (int i_begin : {-width, 0, ni - width, ni}) {
      std::vector<double> buf(i_strip_elems(a, width), -1.0);
      pack_i_strip(a, i_begin, width, buf);
      Array3D<double> b(ni, nj, nk, g);
      b.fill(0.0);
      unpack_i_strip(b, i_begin, width, buf);
      std::vector<double> buf2(buf.size(), -2.0);
      pack_i_strip(b, i_begin, width, buf2);
      EXPECT_EQ(std::memcmp(buf.data(), buf2.data(),
                            buf.size() * sizeof(double)),
                0)
          << "i-strip width " << width << " at " << i_begin;
      // Pack order is k-outer / j / i-fastest.
      EXPECT_DOUBLE_EQ(buf[0], a(i_begin, 0, 0));
      EXPECT_DOUBLE_EQ(buf.back(), a(i_begin + width - 1, nj - 1, nk - 1));
    }
    for (int j_begin : {-width, 0, nj - width, nj}) {
      std::vector<double> buf(j_strip_elems(a, width, g), -1.0);
      pack_j_strip(a, j_begin, width, g, buf);
      Array3D<double> b(ni, nj, nk, g);
      b.fill(0.0);
      unpack_j_strip(b, j_begin, width, g, buf);
      std::vector<double> buf2(buf.size(), -2.0);
      pack_j_strip(b, j_begin, width, g, buf2);
      EXPECT_EQ(std::memcmp(buf.data(), buf2.data(),
                            buf.size() * sizeof(double)),
                0)
          << "j-strip width " << width << " at " << j_begin;
      // j-strips span the i-ghosts: first element is the west ghost corner.
      EXPECT_DOUBLE_EQ(buf[0], a(-g, j_begin, 0));
      EXPECT_DOUBLE_EQ(buf.back(), a(ni + g - 1, j_begin + width - 1, nk - 1));
    }
  }
}

TEST_P(StripSweep, StripSizesMatchDeclaredFormulas) {
  const auto [ni, nj, nk, g] = GetParam();
  Array3D<double> a(ni, nj, nk, g);
  for (int width = 1; width <= g; ++width) {
    EXPECT_EQ(i_strip_elems(a, width),
              static_cast<std::size_t>(width) * static_cast<std::size_t>(nj) *
                  static_cast<std::size_t>(nk));
    EXPECT_EQ(j_strip_elems(a, width, g),
              static_cast<std::size_t>(width) *
                  static_cast<std::size_t>(ni + 2 * g) *
                  static_cast<std::size_t>(nk));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StripSweep,
    ::testing::Values(std::tuple{6, 4, 1, 1},    // flat single layer
                      std::tuple{5, 9, 3, 2},    // non-square, ghost 2
                      std::tuple{4, 3, 5, 3},    // deep, ghost 3
                      std::tuple{12, 2, 2, 1},   // wide and shallow
                      std::tuple{3, 8, 4, 2}));  // tall block

// --- batched multi-field exchange --------------------------------------------

TEST(HaloBatched, MatchesPerFieldExchangeBitExact) {
  const int rows = 2, cols = 2, nlon = 12, nlat = 8, nlev = 3;
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, rows, cols);
    const Decomp2D decomp(nlon, nlat, rows, cols);
    const auto box = decomp.box(mesh.coord());

    auto init = [&](Array3D<double>& f, int var) {
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            f(i, j, k) = 1e4 * var + 100.0 * (box.j0 + j) + (box.i0 + i) +
                         1e-3 * k;
    };
    std::vector<Array3D<double>> batched, serial;
    for (int v = 0; v < 3; ++v) {
      batched.emplace_back(box.ni, box.nj, nlev, 1);
      serial.emplace_back(box.ni, box.nj, nlev, 1);
      init(batched.back(), v);
      init(serial.back(), v);
    }

    Array3D<double>* ptrs[] = {&batched[0], &batched[1], &batched[2]};
    exchange_halos(mesh, ptrs);
    for (auto& f : serial) exchange_halo(mesh, f);

    for (int v = 0; v < 3; ++v) {
      const auto a = batched[static_cast<std::size_t>(v)].raw();
      const auto b = serial[static_cast<std::size_t>(v)].raw();
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << "field " << v;
    }
  });
}

TEST(HaloBatched, RejectsMismatchedShapes) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [&](RankContext& ctx) {
                             Communicator world(ctx);
                             Mesh2D mesh(world, 1, 1);
                             Array3D<double> a(6, 4, 1, 1);
                             Array3D<double> b(6, 5, 1, 1);
                             Array3D<double>* ptrs[] = {&a, &b};
                             exchange_halos(mesh, ptrs);
                           }),
               ConfigError);
}

TEST(Halo, PolarGhostRowsAreLeftUntouched) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  machine.run(1, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 1, 1);
    const Decomp2D decomp(8, 4, 1, 1);
    Array3D<double> field(8, 4, 1, 1);
    field.fill(0.0);
    for (int i = -1; i <= 8; ++i) {
      field(i, -1, 0) = -77.0;
      field(i, 4, 0) = -88.0;
    }
    exchange_halo(mesh, field);
    EXPECT_DOUBLE_EQ(field(0, -1, 0), -77.0);
    EXPECT_DOUBLE_EQ(field(0, 4, 0), -88.0);
  });
}

TEST(Halo, WidthMustBeWithinGhost) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [&](RankContext& ctx) {
                             Communicator world(ctx);
                             Mesh2D mesh(world, 1, 1);
                             Array3D<double> f(4, 4, 1, 1);
                             exchange_halo(mesh, f, 2);
                           }),
               ConfigError);
}

}  // namespace
}  // namespace agcm::grid
