// Allocation-freedom test for the kernel engine: after warm-up steps, the
// steady-state dynamics + physics hot paths must not touch the heap
// (docs/kernels.md, "allocation-free steady state"). This is a property of
// the configurations tested here — both time schemes, both
// `optimized_advection` settings, a 1x1 mesh with LB off — not a claim
// about every path of a model step. All kernel scratch lives in the
// per-rank KernelWorkspace (advection rows, column bands), the Physics
// gather buffers are members sized in the constructor, and the profile
// Thomas solves run in place via thomas_solve_into.
//
// The check hooks the global operator new/delete with a counting wrapper,
// like tests/test_comm_alloc.cpp; it lives in its own binary so the hooks
// cannot perturb the other suites. CI runs it under ASan+UBSan as well —
// the hooks pass through to malloc/aligned_alloc, so the sanitizers still
// see every underlying allocation.
//
// Unlike test_comm_alloc there is no gatekeeper protocol: the virtual
// machine here is a single rank (1x1 mesh), so exactly one thread runs and
// the global counter samples are race-free. The periodic east-west halo
// neighbour of a 1x1 mesh is the rank itself, which still exercises the
// pooled transport path under the step.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/mesh2d.hpp"
#include "dynamics/advection.hpp"
#include "dynamics/dynamics.hpp"
#include "dynamics/state.hpp"
#include "grid/array3d.hpp"
#include "grid/decomp.hpp"
#include "grid/latlon.hpp"
#include "kernels/simd/dispatch.hpp"
#include "physics/column.hpp"
#include "physics/physics.hpp"
#include "simnet/machine.hpp"

namespace {
std::atomic<std::size_t> g_new_calls{0};
}  // namespace

// Counting global allocator: malloc passthrough (sanitizer-friendly — ASan
// still sees the underlying malloc/free).
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               ((size + static_cast<std::size_t>(align) - 1) /
                                static_cast<std::size_t>(align)) *
                                   static_cast<std::size_t>(align));
  if (p) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Every delete frees through one out-of-line helper. If GCC inlined a
// bare std::free into a caller whose pointer came from the (opaque)
// replacement operator new, it would report a false
// -Wmismatched-new-delete.
namespace {
[[gnu::noinline]] void hook_free(void* p) noexcept { std::free(p); }
}  // namespace
void operator delete(void* p) noexcept { hook_free(p); }
void operator delete[](void* p) noexcept { hook_free(p); }
void operator delete(void* p, std::size_t) noexcept { hook_free(p); }
void operator delete[](void* p, std::size_t) noexcept { hook_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { hook_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { hook_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  hook_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  hook_free(p);
}

namespace agcm {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Array3D;
using grid::Decomp2D;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

std::size_t allocs() { return g_new_calls.load(std::memory_order_relaxed); }

TEST(AllocationHook, CountsHeapTraffic) {
  const std::size_t before = allocs();
  auto* v = new std::vector<double>(1000);
  const std::size_t after = allocs();
  delete v;
  EXPECT_GE(after - before, 2u);  // the vector object + its storage
  // The aligned path (Array3D storage) must be hook-visible too.
  const std::size_t before_aligned = allocs();
  { Array3D<double> a(8, 4, 2, 1); }
  EXPECT_GE(allocs() - before_aligned, 1u);
}

TEST(KernelAllocFree, AdvectionEngineAfterWarmup) {
  const grid::LatLonGrid g(24, 16, 3);
  const grid::LocalBox box{0, g.nlon(), 0, g.nlat()};
  const dynamics::Metrics metrics = dynamics::Metrics::build(g, box);
  dynamics::State state(box, g.nlev());
  dynamics::initialize_state(state, g, box, 7);
  const Array3D<double> h_new = state.h;
  Array3D<double>* tracers[] = {&state.theta, &state.q};

  // The warm engine must stay off the heap on every SIMD dispatch tier the
  // host offers, not just the auto-selected one (the tiers share one
  // workspace, so switching must not trigger regrowth).
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2,
                          simd::Tier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    SCOPED_TRACE(simd::tier_name(tier));
    ASSERT_TRUE(simd::force_tier(tier));  // outside the counted window
    // Warm: first call grows the workspace to this shape.
    dynamics::advect_tracers_optimized(g, box, metrics, state.h, h_new,
                                       state.u, state.v, tracers, 450.0);
    const std::size_t before = allocs();
    for (int it = 0; it < 3; ++it) {
      dynamics::advect_tracers_optimized(g, box, metrics, state.h, h_new,
                                         state.u, state.v, tracers, 450.0);
    }
    EXPECT_EQ(allocs() - before, 0u)
        << "warm advection engine touched the heap";
  }
  simd::reset_tier();
}

TEST(KernelAllocFree, ColumnPhysicsAfterWarmup) {
  physics::ColumnParams params;  // nlev 9, implicit diffusion on
  constexpr std::size_t kColumns = 37;  // full batches and a tail
  std::vector<double> profiles(kColumns * 18);
  std::vector<physics::ColumnSite> sites(kColumns);
  std::vector<physics::ColumnResult> results(kColumns);
  for (std::size_t c = 0; c < kColumns; ++c) {
    double* theta = profiles.data() + c * 18;
    for (int k = 0; k < 9; ++k) {
      theta[k] = 285.0 + 0.7 * k - (k % 3 == 1);
      theta[9 + k] = 0.01 / (1 + k);
    }
    sites[c] = {11 + c, 0.4, 0.1 * static_cast<double>(c), theta, theta + 9};
  }
  const std::span<double> theta(profiles.data(), 9);
  const std::span<double> q(profiles.data() + 9, 9);
  // Each tier batches a different number of columns, so each warms first.
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2,
                          simd::Tier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    SCOPED_TRACE(simd::tier_name(tier));
    ASSERT_TRUE(simd::force_tier(tier));  // outside the counted window
    physics::step_columns(params, 0, 0.0, sites, results);  // warm
    const std::size_t before = allocs();
    for (int s = 1; s <= 4; ++s) {
      physics::step_columns(params, s, 450.0 * s, sites, results);
      (void)physics::step_column(params, 11, s, 0.4, 1.2, 450.0 * s, theta,
                                 q);
    }
    EXPECT_EQ(allocs() - before, 0u)
        << "warm column physics touched the heap";
  }
  simd::reset_tier();
}

/// (time scheme, optimized_advection). Both advection settings run the
/// same host engine; the flag only changes the virtual charge.
class KernelAllocFreeScheme
    : public ::testing::TestWithParam<std::tuple<dynamics::TimeScheme, bool>> {
};

TEST_P(KernelAllocFreeScheme, WarmDynamicsPlusPhysicsStep) {
  const int nlon = 24, nlat = 16, nlev = 3;
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  machine.run(1, [&](RankContext& ctx) {
    Communicator world(ctx);
    ctx.network().pool().prewarm(128, 1 << 16);
    Mesh2D mesh(world, 1, 1);
    const Decomp2D decomp(nlon, nlat, 1, 1);
    const grid::LatLonGrid g(nlon, nlat, nlev);

    dynamics::DynamicsConfig dcfg;
    dcfg.time_scheme = std::get<0>(GetParam());
    dcfg.optimized_advection = std::get<1>(GetParam());
    dynamics::Dynamics dyn(mesh, decomp, g, dcfg);

    physics::PhysicsConfig pcfg;
    pcfg.column.nlev = nlev;
    pcfg.load_balance = false;  // column pass stays rank-local
    physics::Physics phys(mesh, decomp, g, pcfg);

    dynamics::State state(decomp.box(mesh.coord()), nlev);
    dynamics::initialize_state(state, g, decomp.box(mesh.coord()), 1996);

    // Warm-up: workspace growth, FFT plans, transport pool, channels, and
    // leapfrog's lagged level (allocated on its first step).
    for (int it = 0; it < 3; ++it) {
      dyn.step(state);
      (void)phys.step(state);
    }

    const std::size_t before = allocs();
    for (int it = 0; it < 2; ++it) {
      dyn.step(state);
      (void)phys.step(state);
    }
    EXPECT_EQ(allocs() - before, 0u)
        << "warm dynamics+physics step touched the heap";
  });
}

INSTANTIATE_TEST_SUITE_P(
    TimeSchemes, KernelAllocFreeScheme,
    ::testing::Combine(::testing::Values(dynamics::TimeScheme::kForwardBackward,
                                         dynamics::TimeScheme::kLeapfrog),
                       ::testing::Bool()),
    [](const auto& info) {
      const std::string scheme =
          std::get<0>(info.param) == dynamics::TimeScheme::kLeapfrog
              ? "Leapfrog"
              : "ForwardBackward";
      return scheme + (std::get<1>(info.param) ? "Optimized" : "Baseline");
    });

}  // namespace
}  // namespace agcm
