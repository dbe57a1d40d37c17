// Tests for the dynamical core: decomposition-invariant initial conditions,
// exact conservation laws, identical results across node meshes, the
// baseline/optimized advection equivalence, and the polar-filter stability
// story the paper's filtering exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <map>
#include <string>
#include <vector>

#include "comm/mesh2d.hpp"
#include "grid/halo.hpp"
#include "dynamics/advection_seed_ref.hpp"
#include "dynamics/dynamics.hpp"
#include "simnet/machine.hpp"
#include "util/stats.hpp"

namespace agcm::dynamics {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Decomp2D;
using grid::LatLonGrid;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

constexpr int kLon = 36, kLat = 24, kLev = 2;
constexpr std::uint64_t kSeed = 777;

/// Runs `steps` of the model on a given mesh and returns the *global* h and
/// theta fields (assembled in (i,j,k) order) plus diagnostics.
struct GlobalRun {
  std::vector<double> h, u, v, theta, q;
  double mass0 = 0.0, mass1 = 0.0;
  double tracer0 = 0.0, tracer1 = 0.0;
  std::vector<simnet::TimeBreakdown> breakdowns;  ///< per rank
};

GlobalRun run_on_mesh(int rows, int cols, int steps, DynamicsConfig cfg,
                      int nlat = kLat) {
  GlobalRun out;
  const std::size_t total =
      static_cast<std::size_t>(kLon) * static_cast<std::size_t>(nlat) * kLev;
  out.h.resize(total);
  out.u.resize(total);
  out.v.resize(total);
  out.theta.resize(total);
  out.q.resize(total);

  Machine machine(MachineProfile::intel_paragon());
  machine.set_recv_timeout_ms(60'000);
  const auto result = machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, rows, cols);
    const LatLonGrid grid(kLon, nlat, kLev);
    const Decomp2D decomp(kLon, nlat, rows, cols);
    Dynamics dyn(mesh, decomp, grid, cfg);
    State state(decomp.box(mesh.coord()), kLev);
    initialize_state(state, grid, decomp.box(mesh.coord()), kSeed);

    if (world.rank() == 0) out.mass0 = 0.0;
    const double mass0 = dyn.total_mass(state);
    const double tracer0 = dyn.total_tracer_mass(state, state.theta);
    for (int s = 0; s < steps; ++s) dyn.step(state);
    const double mass1 = dyn.total_mass(state);
    const double tracer1 = dyn.total_tracer_mass(state, state.theta);

    // Assemble globals (every rank writes its own block; threads share out).
    const auto box = decomp.box(mesh.coord());
    auto put = [&](std::vector<double>& dst, const grid::Array3D<double>& a) {
      for (int k = 0; k < kLev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            dst[static_cast<std::size_t>(box.i0 + i) +
                static_cast<std::size_t>(kLon) *
                    (static_cast<std::size_t>(box.j0 + j) +
                     static_cast<std::size_t>(nlat) * k)] = a(i, j, k);
    };
    put(out.h, state.h);
    put(out.u, state.u);
    put(out.v, state.v);
    put(out.theta, state.theta);
    put(out.q, state.q);
    if (world.rank() == 0) {
      out.mass0 = mass0;
      out.mass1 = mass1;
      out.tracer0 = tracer0;
      out.tracer1 = tracer1;
    }
  });
  out.breakdowns = result.breakdowns;
  return out;
}

DynamicsConfig base_config() {
  DynamicsConfig cfg;
  cfg.dt_sec = 120.0;
  cfg.filter_algorithm = filter::FilterAlgorithm::kFftBalanced;
  return cfg;
}

TEST(State, InitializationIsDecompositionInvariant) {
  const auto a = run_on_mesh(1, 1, 0, base_config());
  const auto b = run_on_mesh(2, 3, 0, base_config());
  EXPECT_DOUBLE_EQ(max_abs_diff(a.h, b.h), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a.theta, b.theta), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a.q, b.q), 0.0);
}

TEST(State, InitialConditionIsPhysicallySane) {
  const auto a = run_on_mesh(1, 1, 0, base_config());
  for (double h : a.h) {
    EXPECT_GT(h, 5000.0);
    EXPECT_LT(h, 11000.0);
  }
  for (double t : a.theta) {
    EXPECT_GT(t, 200.0);
    EXPECT_LT(t, 350.0);
  }
  for (double q : a.q) {
    EXPECT_GE(q, 0.0);
    EXPECT_LT(q, 0.04);
  }
}

TEST(Dynamics, MassIsConservedExactly) {
  const auto run = run_on_mesh(2, 2, 10, base_config());
  EXPECT_NEAR(run.mass1, run.mass0, 1e-10 * run.mass0);
}

TEST(Dynamics, TracerMassConservedByAdvection) {
  // Upwind flux-form transport conserves integral(theta * h) exactly. The
  // polar filter is disabled here: filtering theta and h preserves each
  // field's zonal mean but not the mean of their product.
  DynamicsConfig cfg = base_config();
  cfg.use_polar_filter = false;
  cfg.dt_sec = 60.0;  // keep the unfiltered run CFL-stable
  const auto run = run_on_mesh(2, 2, 10, cfg);
  EXPECT_NEAR(run.tracer1, run.tracer0, 1e-9 * std::abs(run.tracer0));
}

class MeshEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshEquivalence, ResultsIdenticalToSingleNode) {
  // The same model on any node mesh must produce the same answer: the
  // decomposition is purely a performance choice. (Filtering, halos and
  // advection all cross block boundaries, so this is a sharp end-to-end
  // test of the whole parallel stack.)
  const auto [rows, cols] = GetParam();
  DynamicsConfig cfg = base_config();
  const auto serial = run_on_mesh(1, 1, 5, cfg);
  const auto parallel = run_on_mesh(rows, cols, 5, cfg);
  EXPECT_LT(max_abs_diff(serial.h, parallel.h), 1e-9);
  EXPECT_LT(max_abs_diff(serial.u, parallel.u), 1e-9);
  EXPECT_LT(max_abs_diff(serial.theta, parallel.theta), 1e-9);
  EXPECT_LT(max_abs_diff(serial.q, parallel.q), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Meshes, MeshEquivalence,
                         ::testing::Values(std::pair{1, 4}, std::pair{4, 1},
                                           std::pair{2, 3}, std::pair{3, 2},
                                           std::pair{4, 3}));

TEST(Dynamics, FilterVariantsAgreeEndToEnd) {
  DynamicsConfig cfg = base_config();
  cfg.filter_algorithm = filter::FilterAlgorithm::kConvolutionRing;
  const auto conv = run_on_mesh(2, 2, 5, cfg);
  cfg.filter_algorithm = filter::FilterAlgorithm::kFftBalanced;
  const auto fft = run_on_mesh(2, 2, 5, cfg);
  cfg.filter_algorithm = filter::FilterAlgorithm::kFftTranspose;
  const auto fft2 = run_on_mesh(2, 2, 5, cfg);
  EXPECT_LT(max_abs_diff(conv.h, fft.h), 1e-7);
  EXPECT_LT(max_abs_diff(fft2.h, fft.h), 1e-9);
  EXPECT_LT(max_abs_diff(conv.theta, fft.theta), 1e-7);
}

TEST(Advection, OptimizedMatchesBaselineBitForBit) {
  // The engine that does the host work for both of the paper's variants
  // must reproduce the baseline loop (advection_seed_ref) bit for bit,
  // step after step, with a thickness that changes across the step.
  const LatLonGrid grid(kLon, kLat, kLev);
  const grid::LocalBox box{0, kLon, 0, kLat};
  const Metrics metrics = Metrics::build(grid, box);
  State base(box, kLev);
  initialize_state(base, grid, box, kSeed);
  // The initial state is at meridional rest: give v both signs so every
  // face's upwind choice is exercised.
  for (int k = 0; k < kLev; ++k)
    for (int j = 0; j < kLat; ++j)
      for (int i = 0; i < kLon; ++i)
        base.v(i, j, k) = 10.0 * std::sin(0.7 * i + 1.3 * j + k);
  State eng = base;
  grid::Array3D<double> h_new = base.h;
  for (int k = 0; k < kLev; ++k)
    for (int j = 0; j < kLat; ++j)
      for (int i = 0; i < kLon; ++i)
        h_new(i, j, k) *= 1.0 + 1e-3 * std::sin(i + 2.0 * j + 3.0 * k);
  grid::Array3D<double>* tr_base[] = {&base.theta, &base.q};
  grid::Array3D<double>* tr_eng[] = {&eng.theta, &eng.q};
  for (int s = 0; s < 3; ++s) {
    const KernelCost c_base = advect_tracers_baseline(
        grid, box, metrics, base.h, h_new, base.u, base.v, tr_base, 120.0);
    const KernelCost c_eng = advect_tracers_optimized(
        grid, box, metrics, eng.h, h_new, eng.u, eng.v, tr_eng, 120.0);
    EXPECT_EQ(c_base.flops,
              advection_cost(false, box, kLev, std::size(tr_base)).flops);
    EXPECT_EQ(c_eng.flops,
              advection_cost(true, box, kLev, std::size(tr_eng)).flops);
  }
  for (std::size_t t = 0; t < std::size(tr_base); ++t) {
    const auto a = tr_base[t]->pack_interior();
    const auto b = tr_eng[t]->pack_interior();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "tracer " << t << " diverged bitwise";
  }
}

TEST(Advection, FlagSelectsOnlyTheVirtualCharge) {
  // optimized_advection picks the variant the virtual clock is charged
  // for; the fields are the same bits either way.
  DynamicsConfig cfg = base_config();
  cfg.optimized_advection = false;
  const auto baseline = run_on_mesh(2, 2, 6, cfg);
  cfg.optimized_advection = true;
  const auto optimized = run_on_mesh(2, 2, 6, cfg);
  EXPECT_DOUBLE_EQ(max_abs_diff(baseline.theta, optimized.theta), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(baseline.q, optimized.q), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(baseline.h, optimized.h), 0.0);
  ASSERT_EQ(baseline.breakdowns.size(), optimized.breakdowns.size());
  for (std::size_t r = 0; r < baseline.breakdowns.size(); ++r)
    EXPECT_LT(optimized.breakdowns[r].compute, baseline.breakdowns[r].compute);
}

TEST(Advection, OptimizedIsCheaperInTheCostModel) {
  const LatLonGrid grid(kLon, kLat, kLev);
  const grid::LocalBox box{0, kLon, 0, kLat};
  const Metrics metrics = Metrics::build(grid, box);
  State state(box, kLev);
  initialize_state(state, grid, box, kSeed);
  grid::Array3D<double> h_new = state.h;
  grid::Array3D<double>* tracers1[] = {&state.theta, &state.q};
  const KernelCost base = advect_tracers_baseline(
      grid, box, metrics, state.h, h_new, state.u, state.v, tracers1, 60.0);
  State state2(box, kLev);
  initialize_state(state2, grid, box, kSeed);
  grid::Array3D<double>* tracers2[] = {&state2.theta, &state2.q};
  const KernelCost opt = advect_tracers_optimized(
      grid, box, metrics, state2.h, h_new, state2.u, state2.v, tracers2, 60.0);
  EXPECT_LT(opt.flops, base.flops);
  // The fused loop streams more arrays concurrently, so its modelled cache
  // efficiency is lower; the flop savings dominate.
  EXPECT_LT(opt.cache_efficiency, base.cache_efficiency);
  // Virtual time ratio (paper: ~35% reduction on a T3D node).
  const auto node = MachineProfile::cray_t3d();
  const double t_base = node.compute_time(base.flops, base.cache_efficiency);
  const double t_opt = node.compute_time(opt.flops, opt.cache_efficiency);
  const double reduction = 1.0 - t_opt / t_base;
  EXPECT_GT(reduction, 0.25);
  EXPECT_LT(reduction, 0.55);
}

/// Deterministic fill that covers the ghost ring too: both advection paths
/// read the same neighbour values, so any ghost content is fine as long as
/// it is identical on both sides of the comparison.
void fill_ghosted(grid::Array3D<double>& a, double base, int tag) {
  const int g = a.ghost();
  for (int k = 0; k < a.nk(); ++k)
    for (int j = -g; j < a.nj() + g; ++j)
      for (int i = -g; i < a.ni() + g; ++i)
        a(i, j, k) =
            base + std::sin(0.31 * i + 0.17 * j + 0.53 * k + 1.7 * tag);
}

TEST(Advection, EngineBitIdenticalToSeedReferenceOnAwkwardShapes) {
  // The row-streamed kernel engine (kernels::advect_tracers_engine,
  // reached via advect_tracers_optimized) must reproduce the preserved
  // seed path and the baseline loop bit for bit on shapes that stress the
  // row machinery: blocks narrower than the 4-wide unroll, one row and odd
  // row counts (the update-row parity), wide (ghost-2) halos, zero and
  // many tracers, and a single vertical level.
  struct Shape {
    int ni, nj, nk, ghost, ntracers;
  };
  constexpr Shape kShapes[] = {{1, 2, 2, 1, 1}, {3, 4, 2, 1, 0},
                               {5, 9, 1, 1, 5}, {7, 2, 3, 2, 2},
                               {1, 1, 1, 2, 1}, {4, 17, 2, 2, 5}};
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(::testing::Message()
                 << "ni=" << s.ni << " nj=" << s.nj << " nk=" << s.nk
                 << " ghost=" << s.ghost << " tracers=" << s.ntracers);
    // The local box is a sub-block of a (legal) global grid, exactly as a
    // decomposed rank would see; j0 = 1 keeps dx_vface rows interesting.
    const LatLonGrid grid(std::max(4, s.ni), s.nj + 2, s.nk);
    const grid::LocalBox box{0, s.ni, 1, s.nj};
    const Metrics metrics = Metrics::build(grid, box);

    grid::Array3D<double> h_old(s.ni, s.nj, s.nk, s.ghost);
    grid::Array3D<double> h_new(s.ni, s.nj, s.nk, s.ghost);
    grid::Array3D<double> u(s.ni, s.nj, s.nk, s.ghost);
    grid::Array3D<double> v(s.ni, s.nj, s.nk, s.ghost);
    fill_ghosted(h_old, 1000.0, 1);
    fill_ghosted(h_new, 1000.0, 2);
    fill_ghosted(u, 0.0, 3);
    fill_ghosted(v, 0.0, 4);

    std::vector<grid::Array3D<double>> tr_seed, tr_base, tr_eng;
    std::vector<grid::Array3D<double>*> ptr_seed, ptr_base, ptr_eng;
    for (int t = 0; t < s.ntracers; ++t) {
      grid::Array3D<double> c(s.ni, s.nj, s.nk, s.ghost);
      fill_ghosted(c, 280.0 + 3.0 * t, 10 + t);
      tr_seed.push_back(c);
      tr_base.push_back(c);
      tr_eng.push_back(c);
    }
    for (int t = 0; t < s.ntracers; ++t) {
      ptr_seed.push_back(&tr_seed[static_cast<std::size_t>(t)]);
      ptr_base.push_back(&tr_base[static_cast<std::size_t>(t)]);
      ptr_eng.push_back(&tr_eng[static_cast<std::size_t>(t)]);
    }

    const KernelCost c_seed = advect_tracers_optimized_seed_ref(
        grid, box, metrics, h_old, h_new, u, v,
        std::span<grid::Array3D<double>* const>(ptr_seed), 240.0);
    (void)advect_tracers_baseline(
        grid, box, metrics, h_old, h_new, u, v,
        std::span<grid::Array3D<double>* const>(ptr_base), 240.0);
    const KernelCost c_eng = advect_tracers_optimized(
        grid, box, metrics, h_old, h_new, u, v,
        std::span<grid::Array3D<double>* const>(ptr_eng), 240.0);

    // Identical virtual-cost model (the engine must not perturb the frozen
    // virtual-time artefacts) and bitwise-identical tracer fields.
    EXPECT_EQ(c_seed.flops, c_eng.flops);
    EXPECT_EQ(c_seed.cache_efficiency, c_eng.cache_efficiency);
    for (int t = 0; t < s.ntracers; ++t) {
      const auto a = tr_seed[static_cast<std::size_t>(t)].pack_interior();
      const auto b = tr_eng[static_cast<std::size_t>(t)].pack_interior();
      const auto c = tr_base[static_cast<std::size_t>(t)].pack_interior();
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(c.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << "tracer " << t << " diverged bitwise";
      EXPECT_EQ(std::memcmp(c.data(), b.data(), c.size() * sizeof(double)), 0)
          << "tracer " << t << " diverged bitwise from the baseline loop";
    }
  }
}

TEST(Dynamics, PolarFilterKeepsPolarNoiseBounded) {
  // Run with and without the filter at a timestep that is CFL-stable in
  // mid-latitudes but aggressive at the poles. The filtered run must stay
  // bounded and smoother near the poles than the unfiltered one.
  // dt = 600 s is comfortably CFL-stable at mid-latitudes on this grid but
  // has a polar gravity-wave Courant number well above 1 — exactly the
  // regime the AGCM's uniform timestep creates.
  DynamicsConfig with_filter = base_config();
  with_filter.dt_sec = 600.0;
  DynamicsConfig without = with_filter;
  without.use_polar_filter = false;

  const auto filtered = run_on_mesh(2, 2, 30, with_filter);
  const auto unfiltered = run_on_mesh(2, 2, 30, without);

  auto polar_roughness = [&](const std::vector<double>& u) {
    // Max |second zonal difference| over the two polemost rows, layer 0;
    // non-finite values (a blown-up run) count as infinitely rough.
    double rough = 0.0;
    for (int gj : {0, kLat - 1}) {
      for (int gi = 0; gi < kLon; ++gi) {
        const auto at = [&](int i) {
          return u[static_cast<std::size_t>((i + kLon) % kLon) +
                   static_cast<std::size_t>(kLon) * static_cast<std::size_t>(gj)];
        };
        const double d2 = at(gi + 1) - 2 * at(gi) + at(gi - 1);
        if (!std::isfinite(d2)) return 1.0e300;
        rough = std::max(rough, std::abs(d2));
      }
    }
    return rough;
  };

  for (double v : filtered.u) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_LT(std::abs(v), 500.0);
  }
  EXPECT_LT(polar_roughness(filtered.u), polar_roughness(unfiltered.u));
}

TEST(Dynamics, CourantDiagnosticsReflectTimestep) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(30'000);
  machine.run(1, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 1, 1);
    const LatLonGrid grid(kLon, kLat, kLev);
    const Decomp2D decomp(kLon, kLat, 1, 1);
    DynamicsConfig cfg = base_config();
    Dynamics dyn(mesh, decomp, grid, cfg);
    State state(decomp.box(mesh.coord()), kLev);
    initialize_state(state, grid, decomp.box(mesh.coord()), kSeed);
    const double c1 = dyn.max_zonal_courant(state);
    EXPECT_GT(c1, 0.0);
    // Scaling dt scales the Courant number linearly.
    DynamicsConfig cfg2 = cfg;
    cfg2.dt_sec = 5.0 * cfg.dt_sec;
    Dynamics dyn2(mesh, decomp, grid, cfg2);
    EXPECT_NEAR(dyn2.max_zonal_courant(state), 5.0 * c1, 1e-9);
    // The gravity-wave Courant at the poles exceeds 1 for a timestep that
    // mid-latitudes tolerate easily — the reason the polar filter exists.
    EXPECT_GT(dyn2.max_gravity_courant(state), 1.0);
  });
}

/// The row-maximum form of the Courant diagnostics against the per-point
/// loop it replaced, on a state with negative, NaN and signed-zero h and u:
/// the same bits, NaN points skipped, negative h counted as 0.
TEST(Dynamics, CourantDiagnosticsMatchThePerPointLoop) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(30'000);
  machine.run(1, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 1, 1);
    const LatLonGrid grid(kLon, kLat, kLev);
    const Decomp2D decomp(kLon, kLat, 1, 1);
    const auto box = decomp.box(mesh.coord());
    const DynamicsConfig cfg = base_config();
    const Dynamics dyn(mesh, decomp, grid, cfg);
    State state(box, kLev);
    initialize_state(state, grid, box, kSeed);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Row 0 is poleward, where dx is smallest: its largest value gives
    // the largest Courant number, and a NaN right after it must not lose
    // it. Other rows: all negative, a NaN first, a NaN last, a -0.0.
    double h_top = 0.0, u_top = 0.0;
    for (int i = 0; i < box.ni; ++i) {
      h_top = std::max(h_top, 4.0 * state.h(i, 0, 1));
      u_top = std::max(u_top, 4.0 * std::abs(state.u(i, 0, 0)) + 1.0);
    }
    state.h(4, 0, 1) = h_top;
    state.h(5, 0, 1) = nan;
    state.u(2, 0, 0) = -u_top;
    state.u(3, 0, 0) = nan;
    for (int i = 0; i < box.ni; ++i) state.h(i, 3, 0) = -1.0 - i;
    state.h(0, 1, 0) = nan;
    state.h(box.ni - 1, kLat - 1, 1) = nan;
    state.h(2, 2, 0) = -0.0;
    state.u(0, 1, 0) = nan;
    state.u(box.ni - 1, 2, 1) = nan;
    state.u(4, 2, 1) = -0.0;

    const double g = grid.planet().gravity;
    double zonal = 0.0, gravity = 0.0;
    for (int k = 0; k < kLev; ++k)
      for (int j = 0; j < box.nj; ++j) {
        const double dx = grid.dx_m(box.j0 + j);
        const double dx_g = std::min(dx, grid.dy_m());
        for (int i = 0; i < box.ni; ++i) {
          zonal =
              std::max(zonal, std::abs(state.u(i, j, k)) * cfg.dt_sec / dx);
          const double h = std::max(state.h(i, j, k), 0.0);
          gravity = std::max(gravity, std::sqrt(g * h) * cfg.dt_sec / dx_g);
        }
      }
    ASSERT_GT(zonal, 0.0);
    ASSERT_GT(gravity, 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dyn.max_zonal_courant(state)),
              std::bit_cast<std::uint64_t>(zonal));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dyn.max_gravity_courant(state)),
              std::bit_cast<std::uint64_t>(gravity));
  });
}

TEST(Dynamics, TimingsArePopulatedAndPositive) {
  Machine machine(MachineProfile::intel_paragon());
  machine.set_recv_timeout_ms(30'000);
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 2);
    const LatLonGrid grid(kLon, kLat, kLev);
    const Decomp2D decomp(kLon, kLat, 2, 2);
    Dynamics dyn(mesh, decomp, grid, base_config());
    State state(decomp.box(mesh.coord()), kLev);
    initialize_state(state, grid, decomp.box(mesh.coord()), kSeed);
    dyn.step(state);
    const auto t = dyn.last_timings();
    EXPECT_GT(t.filter_sec, 0.0);
    EXPECT_GT(t.halo_sec, 0.0);
    EXPECT_GT(t.fd_sec, 0.0);
    EXPECT_EQ(state.step, 1);
    EXPECT_DOUBLE_EQ(state.time_sec, base_config().dt_sec);
  });
}

TEST(Advection, SolidBodyRotationCarriesBlobAroundTheGlobe) {
  // Williamson-style test case 1: a tracer blob advected by solid-body
  // rotation (u = omega a cos(lat), v = 0) must travel at the right speed
  // — after a quarter revolution its centre of mass sits a quarter of the
  // way around — and its mass must be conserved exactly. First-order
  // upwind diffuses the blob but cannot move mass at the wrong speed.
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(60'000);
  machine.run(6, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 3);
    const int nlon = 72, nlat = 20, nlev = 1;
    const LatLonGrid grid(nlon, nlat, nlev);
    const Decomp2D decomp(nlon, nlat, 2, 3);
    const auto box = decomp.box(mesh.coord());
    const Metrics metrics = Metrics::build(grid, box);

    const double omega_rot = 2.0 * std::numbers::pi / (12.0 * 86400.0);
    State state(box, nlev);
    for (int j = 0; j < box.nj; ++j) {
      const int gj = box.j0 + j;
      for (int i = 0; i < box.ni; ++i) {
        const int gi = box.i0 + i;
        state.h(i, j, 0) = 8000.0;
        state.u(i, j, 0) =
            omega_rot * grid.planet().radius_m * grid.cos_center(gj);
        state.v(i, j, 0) = 0.0;
        // Gaussian blob centred at lon 90E on the equator band.
        const double lon = grid.lon_center(gi);
        const double lat = grid.lat_center(gj);
        const double dlon = std::remainder(lon - std::numbers::pi / 2,
                                           2.0 * std::numbers::pi);
        state.theta(i, j, 0) =
            std::exp(-18.0 * (dlon * dlon + lat * lat));
        state.q(i, j, 0) = 0.0;
      }
    }

    // Advect a quarter revolution. dt chosen so the polar zonal Courant
    // number stays below 1 (solid-body: Courant is latitude-uniform here).
    const double dt = 1800.0;
    const int steps = static_cast<int>(0.25 * 12.0 * 86400.0 / dt);
    grid::Array3D<double> h_new = state.h;  // h is steady (div-free flow)

    auto tracer_mass = [&]() {
      double local = 0.0;
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i)
          local += state.theta(i, j, 0) * grid.cell_area_m2(box.j0 + j);
      return world.allreduce_sum(local);
    };
    const double mass0 = tracer_mass();

    for (int s = 0; s < steps; ++s) {
      grid::exchange_halo(mesh, state.theta);
      grid::exchange_halo(mesh, state.h);
      grid::exchange_halo(mesh, state.u);
      grid::exchange_halo(mesh, state.v);
      grid::Array3D<double>* tracers[] = {&state.theta};
      advect_tracers_optimized(grid, box, metrics, state.h, h_new, state.u,
                               state.v, tracers, dt);
    }

    EXPECT_NEAR(tracer_mass(), mass0, 1e-9 * std::abs(mass0));

    // Centre of mass longitude: should be ~90E + 90 = 180E.
    double sx = 0.0, sy = 0.0, total = 0.0;
    for (int j = 0; j < box.nj; ++j)
      for (int i = 0; i < box.ni; ++i) {
        const double w =
            state.theta(i, j, 0) * grid.cell_area_m2(box.j0 + j);
        const double lon = grid.lon_center(box.i0 + i);
        sx += w * std::cos(lon);
        sy += w * std::sin(lon);
        total += w;
      }
    sx = world.allreduce_sum(sx);
    sy = world.allreduce_sum(sy);
    total = world.allreduce_sum(total);
    const double com_lon = std::atan2(sy / total, sx / total);
    const double expected = std::numbers::pi;  // 180E
    EXPECT_NEAR(std::remainder(com_lon - expected, 2.0 * std::numbers::pi),
                0.0, 0.15);
  });
}

TEST(Dynamics, EnergyStaysBoundedAndNearlyConserved) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(60'000);
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 2);
    const LatLonGrid grid(kLon, kLat, kLev);
    const Decomp2D decomp(kLon, kLat, 2, 2);
    DynamicsConfig cfg = base_config();
    Dynamics dyn(mesh, decomp, grid, cfg);
    State state(decomp.box(mesh.coord()), kLev);
    initialize_state(state, grid, decomp.box(mesh.coord()), kSeed);
    const double e0 = dyn.total_energy(state);
    EXPECT_GT(e0, 0.0);
    for (int s = 0; s < 20; ++s) dyn.step(state);
    const double e1 = dyn.total_energy(state);
    // Filtering and upwinding dissipate; gravity-wave adjustment sloshes.
    // Over 20 short steps the total must stay within a few percent.
    EXPECT_NEAR(e1, e0, 0.05 * e0);
  });
}

TEST(Dynamics, EnergyIsDecompositionInvariant) {
  double e_serial = 0.0, e_parallel = 0.0;
  for (auto [rows, cols, out] :
       {std::tuple<int, int, double*>{1, 1, &e_serial},
        std::tuple<int, int, double*>{2, 3, &e_parallel}}) {
    Machine machine(MachineProfile::ideal());
    machine.set_recv_timeout_ms(60'000);
    machine.run(rows * cols, [&, rows = rows, cols = cols,
                              out = out](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, rows, cols);
      const LatLonGrid grid(kLon, kLat, kLev);
      const Decomp2D decomp(kLon, kLat, rows, cols);
      Dynamics dyn(mesh, decomp, grid, base_config());
      State state(decomp.box(mesh.coord()), kLev);
      initialize_state(state, grid, decomp.box(mesh.coord()), kSeed);
      const double e = dyn.total_energy(state);
      if (world.rank() == 0) *out = e;
    });
  }
  EXPECT_NEAR(e_serial, e_parallel, 1e-9 * e_serial);
}

/// FNV-1a 64 over the raw bytes of `n` objects at `data`.
template <typename T>
void fnv1a(std::uint64_t& digest, const T* data, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t b = 0; b < n * sizeof(T); ++b) {
    digest ^= bytes[b];
    digest *= 0x100000001b3ULL;
  }
}

struct GoldenCase {
  const char* name;
  TimeScheme scheme;
  bool optimized_advection;
  std::uint64_t fields;  ///< digest of the interior h, u, v, theta, q bits
  std::uint64_t times;   ///< digest of every rank's TimeBreakdown
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class IntegratorGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(IntegratorGolden, FieldsAndVirtualTimesArePinned) {
  // Bit-level pin of both time integrators on the shared C-grid operator:
  // any change to which level a term reads, to the order of a sum, to a
  // flop charge or to a halo exchange moves one of the two digests.
  const GoldenCase& c = GetParam();
  DynamicsConfig cfg = base_config();  // fft-load-balanced filter
  cfg.time_scheme = c.scheme;
  cfg.optimized_advection = c.optimized_advection;
  const auto run = run_on_mesh(2, 2, 6, cfg);

  std::uint64_t fields = 0xcbf29ce484222325ULL;
  for (const auto* f : {&run.h, &run.u, &run.v, &run.theta, &run.q})
    fnv1a(fields, f->data(), f->size());
  std::uint64_t times = 0xcbf29ce484222325ULL;
  for (const auto& b : run.breakdowns) {
    const double parts[] = {b.compute, b.overhead, b.wait};
    fnv1a(times, parts, 3);
  }
  EXPECT_EQ(fields, c.fields) << std::hex << "fields digest 0x" << fields;
  EXPECT_EQ(times, c.times) << std::hex << "times digest 0x" << times;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, IntegratorGolden,
    ::testing::Values(
        GoldenCase{"ForwardBackwardBaseline", TimeScheme::kForwardBackward,
                   false, 0x7362636ea17a9edeULL, 0xdbde76c0d20767c0ULL},
        GoldenCase{"ForwardBackwardOptimized", TimeScheme::kForwardBackward,
                   true, 0x7362636ea17a9edeULL, 0xcaa41b8e4eb2fd93ULL},
        GoldenCase{"LeapfrogBaseline", TimeScheme::kLeapfrog, false,
                   0x9344ddacde8af60bULL, 0x188446d3a48e9ba9ULL},
        GoldenCase{"LeapfrogOptimized", TimeScheme::kLeapfrog, true,
                   0x9344ddacde8af60bULL, 0x3b90ce9f4a8c31beULL}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Leapfrog, ConservesMassExactly) {
  DynamicsConfig cfg = base_config();
  cfg.time_scheme = TimeScheme::kLeapfrog;
  const auto run = run_on_mesh(2, 2, 12, cfg);
  EXPECT_NEAR(run.mass1, run.mass0, 1e-10 * run.mass0);
}

TEST(Leapfrog, ConservesTracerMass) {
  DynamicsConfig cfg = base_config();
  cfg.time_scheme = TimeScheme::kLeapfrog;
  cfg.use_polar_filter = false;
  cfg.dt_sec = 60.0;
  const auto run = run_on_mesh(2, 2, 12, cfg);
  EXPECT_NEAR(run.tracer1, run.tracer0, 1e-9 * std::abs(run.tracer0));
}

TEST(Leapfrog, DecompositionInvariant) {
  DynamicsConfig cfg = base_config();
  cfg.time_scheme = TimeScheme::kLeapfrog;
  const auto serial = run_on_mesh(1, 1, 6, cfg);
  const auto parallel = run_on_mesh(3, 2, 6, cfg);
  EXPECT_LT(max_abs_diff(serial.h, parallel.h), 1e-9);
  EXPECT_LT(max_abs_diff(serial.u, parallel.u), 1e-9);
}

TEST(Leapfrog, StaysCloseToForwardBackwardShortTerm) {
  // Both schemes integrate the same equations: over a few steps the
  // trajectories must agree to truncation-error levels, far closer than
  // the field variability.
  DynamicsConfig fb = base_config();
  DynamicsConfig lf = base_config();
  lf.time_scheme = TimeScheme::kLeapfrog;
  const auto a = run_on_mesh(2, 2, 8, fb);
  const auto b = run_on_mesh(2, 2, 8, lf);
  double h_range = 0.0;
  for (double v : a.h) h_range = std::max(h_range, std::abs(v - 8000.0));
  EXPECT_LT(max_abs_diff(a.h, b.h), 0.2 * h_range);
  EXPECT_GT(max_abs_diff(a.h, b.h), 0.0);  // they are different schemes
}

TEST(Leapfrog, StableOverManySteps) {
  DynamicsConfig cfg = base_config();
  cfg.time_scheme = TimeScheme::kLeapfrog;
  cfg.dt_sec = 300.0;
  const auto run = run_on_mesh(2, 2, 60, cfg);
  for (double v : run.u) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_LT(std::abs(v), 500.0);
  }
}

TEST(Leapfrog, RejectsBadAsselinCoefficient) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [&](RankContext& ctx) {
                             Communicator world(ctx);
                             Mesh2D mesh(world, 1, 1);
                             const LatLonGrid grid(kLon, kLat, kLev);
                             const Decomp2D decomp(kLon, kLat, 1, 1);
                             DynamicsConfig cfg;
                             cfg.robert_asselin = 0.7;
                             Dynamics dyn(mesh, decomp, grid, cfg);
                           }),
               ConfigError);
}

TEST(Dynamics, RejectsBadTimestep) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [&](RankContext& ctx) {
                             Communicator world(ctx);
                             Mesh2D mesh(world, 1, 1);
                             const LatLonGrid grid(kLon, kLat, kLev);
                             const Decomp2D decomp(kLon, kLat, 1, 1);
                             DynamicsConfig cfg;
                             cfg.dt_sec = -1.0;
                             Dynamics dyn(mesh, decomp, grid, cfg);
                           }),
               ConfigError);
}

}  // namespace
}  // namespace agcm::dynamics
