// Tracer advection — the routine the paper singles out for single-node
// optimization (Section 3.4: "We selected the advection routine from the
// Dynamics component ... because of the heavy local computing involved").
//
// The paper's two variants differ on the *virtual* clock only:
//   * baseline — structured like the original Fortran: one pass per
//     tracer, each pass recomputing the mass fluxes and metric factors it
//     needs inside the loops (the "redundant calculations in nested loops"
//     the paper eliminates);
//   * optimized — mass fluxes computed once and reused across tracers,
//     loop-invariant metric terms hoisted, loops fused over tracers.
// advection_cost() prices either one. On the host both run the same
// row-streamed engine (kernels::advect_tracers_engine): the variants give
// bit-identical fields, so which loop executes is a host-time choice, and
// the engine is the faster one. The baseline loop itself survives only as
// a bit-reference (dynamics/advection_seed_ref.hpp).
//
// Both use first-order upwind fluxes in flux form, which conserves the
// tracer mass exactly (the integration tests rely on this).
#pragma once

#include <cstddef>
#include <span>

#include "dynamics/state.hpp"

namespace agcm::dynamics {

/// Cost of one advection invocation for the virtual clock.
struct KernelCost {
  double flops = 0.0;
  double cache_efficiency = 1.0;
};

/// Per-latitude-row invariants of the FD sweeps, built once per rank block
/// (construction-time). Row vectors have one entry per local row j unless
/// noted.
struct Metrics {
  std::vector<double> inv_area;    ///< 1 / cell_area(j)
  std::vector<double> dy_face;     ///< meridional face length (m), per j row
  std::vector<double> dx_vface;    ///< zonal length of the v-face at j-1/2
                                   ///< (nj + 1 entries: faces 0 .. nj)
  std::vector<double> dx_u;        ///< zonal spacing dx_m(j) at u points
  std::vector<double> coriolis_u;  ///< 2 Omega sin(lat_center(j))
  /// 2 Omega sin(lat_vface(j+1)): Coriolis at the row's north v-face; 0 on
  /// the global north row, whose polar face stays at rest.
  std::vector<double> coriolis_v;
  static Metrics build(const grid::LatLonGrid& grid, const grid::LocalBox& box);
};

/// Virtual cost of one advection call over `box` x `nk` levels with
/// `ntracers` tracers, for the optimized variant or the baseline.
KernelCost advection_cost(bool optimized, const grid::LocalBox& box, int nk,
                          std::size_t ntracers);

/// Advances `tracers` (centre fields, ghost >= 1, halos current) by dt with
/// upwind fluxes derived from (u, v, h_old); `h_old` and `h_new` are the
/// thickness before/after the continuity update of the same step. Runs the
/// engine and returns the optimized variant's cost.
KernelCost advect_tracers_optimized(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt);

}  // namespace agcm::dynamics
