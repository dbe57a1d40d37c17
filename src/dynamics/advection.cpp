#include "dynamics/advection.hpp"

#include <cmath>

#include "kernels/advection_kernels.hpp"
#include "kernels/workspace.hpp"

namespace agcm::dynamics {

Metrics Metrics::build(const grid::LatLonGrid& grid,
                       const grid::LocalBox& box) {
  const auto nj = static_cast<std::size_t>(box.nj);
  const double omega = grid.planet().omega;
  Metrics m;
  m.inv_area.resize(nj);
  m.dy_face.resize(nj);
  m.dx_vface.resize(nj + 1);
  m.dx_u.resize(nj);
  m.coriolis_u.resize(nj);
  m.coriolis_v.resize(nj);
  for (int j = 0; j < box.nj; ++j) {
    const int gj = box.j0 + j;
    const auto r = static_cast<std::size_t>(j);
    m.inv_area[r] = 1.0 / grid.cell_area_m2(gj);
    m.dy_face[r] = grid.dy_m();
    m.dx_u[r] = grid.dx_m(gj);
    // The expressions Dynamics::momentum used to evaluate at every point,
    // evaluated once per row: the same operations, so the same bits.
    m.coriolis_u[r] = 2.0 * omega * std::sin(grid.lat_center(gj));
    m.coriolis_v[r] = gj + 1 < grid.nlat()
                          ? 2.0 * omega * std::sin(grid.lat_vface(gj + 1))
                          : 0.0;
  }
  for (int j = 0; j <= box.nj; ++j) {
    const int gj = box.j0 + j;
    // Zonal extent of the v-face between rows gj-1 and gj; zero exactly at
    // the poles, which kills the polar mass flux regardless of ghost data.
    m.dx_vface[static_cast<std::size_t>(j)] =
        grid.planet().radius_m * grid.dlon_rad() * grid.cos_vface(gj);
  }
  return m;
}

KernelCost advection_cost(bool optimized, const grid::LocalBox& box, int nk,
                          std::size_t ntracers) {
  const double points = static_cast<double>(box.ni) * box.nj * nk;
  const double tracers = static_cast<double>(ntracers);
  KernelCost cost;
  if (!optimized) {
    // Per point per tracer: 4 mass fluxes (6 flops each incl. face
    // thickness), 4 upwind fluxes (2), update (6) ~= 38 flops.
    cost.flops = 38.0 * points * tracers;
    // Each pass streams a modest set of arrays (u, v, h_old, h_new, tracer,
    // scratch), so per-pass cache behaviour is comparatively benign — the
    // waste is the *recomputation*, not the locality.
    cost.cache_efficiency = 0.80;
    return cost;
  }
  // Mass fluxes once (12 flops/point), then per tracer: 4 upwind fluxes (8)
  // plus the update (6).
  cost.flops = points * (12.0 + 14.0 * tracers);
  // The fused loop references more concurrent streams (two flux arrays,
  // both thicknesses, every tracer and its scratch), which hurts the tiny
  // 1990s caches — the paper's own observation that a "better" data
  // structure for one loop can be worse for another. The net effect is
  // still a ~35% faster routine, dominated by the eliminated flops.
  cost.cache_efficiency = 0.66;
  return cost;
}

KernelCost advect_tracers_optimized(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt) {
  // Host execution is the row-streamed kernel engine, bitwise identical to
  // both the baseline loop and the pre-engine optimized path (preserved in
  // advection_seed_ref.cpp and cross-checked by the dynamics tests). Its
  // O(ni) scratch comes from the per-rank KernelWorkspace, so the steady
  // state allocates nothing.
  const kernels::AdvectionMetricsView mview{
      metrics.inv_area.data(), metrics.dy_face.data(),
      metrics.dx_vface.data()};
  kernels::advect_tracers_engine(mview, h_old, h_new, u, v, tracers, box.ni,
                                 box.nj, grid.nlev(), dt,
                                 util::rank_local<kernels::KernelWorkspace>());
  // The virtual-cost model is the SEED's, unchanged: the engine reorganizes
  // host loops, not the modelled 1990s machine (docs/kernels.md).
  return advection_cost(/*optimized=*/true, box, grid.nlev(), tracers.size());
}

}  // namespace agcm::dynamics
