#include "dynamics/advection.hpp"

#include <algorithm>

#include "kernels/advection_kernels.hpp"
#include "kernels/workspace.hpp"
#include "util/error.hpp"

namespace agcm::dynamics {

Metrics Metrics::build(const grid::LatLonGrid& grid,
                       const grid::LocalBox& box) {
  Metrics m;
  m.inv_area.resize(static_cast<std::size_t>(box.nj));
  m.dy_face.resize(static_cast<std::size_t>(box.nj));
  m.dx_vface.resize(static_cast<std::size_t>(box.nj) + 1);
  for (int j = 0; j < box.nj; ++j) {
    const int gj = box.j0 + j;
    m.inv_area[static_cast<std::size_t>(j)] = 1.0 / grid.cell_area_m2(gj);
    m.dy_face[static_cast<std::size_t>(j)] = grid.dy_m();
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

namespace {

/// Upwind tracer value on a face given the mass flux through it.
inline double upwind(double mass_flux, double c_minus, double c_plus) {
  return mass_flux >= 0.0 ? c_minus : c_plus;
}

}  // namespace

KernelCost advect_tracers_baseline(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt) {
  const int nk = grid.nlev();
  // Original-Fortran structure: one full pass per tracer; the mass fluxes
  // and face thicknesses are recomputed inside every pass (the redundant
  // work the paper's optimization removes).
  for (auto* tracer_ptr : tracers) {
    grid::Array3D<double>& c = *tracer_ptr;
    grid::Array3D<double> updated(box.ni, box.nj, nk, /*ghost=*/0);
    for (int k = 0; k < nk; ++k) {
      for (int j = 0; j < box.nj; ++j) {
        const double inv_area = metrics.inv_area[static_cast<std::size_t>(j)];
        for (int i = 0; i < box.ni; ++i) {
          // Mass fluxes through all four faces, recomputed per tracer.
          const double dy = metrics.dy_face[static_cast<std::size_t>(j)];
          const double fe =
              u(i, j, k) * 0.5 * (h_old(i, j, k) + h_old(i + 1, j, k)) * dy;
          const double fw =
              u(i - 1, j, k) * 0.5 * (h_old(i - 1, j, k) + h_old(i, j, k)) * dy;
          const double fn =
              v(i, j, k) * 0.5 * (h_old(i, j, k) + h_old(i, j + 1, k)) *
              metrics.dx_vface[static_cast<std::size_t>(j) + 1];
          const double fs =
              v(i, j - 1, k) * 0.5 * (h_old(i, j - 1, k) + h_old(i, j, k)) *
              metrics.dx_vface[static_cast<std::size_t>(j)];
          const double flux_e = fe * upwind(fe, c(i, j, k), c(i + 1, j, k));
          const double flux_w = fw * upwind(fw, c(i - 1, j, k), c(i, j, k));
          const double flux_n = fn * upwind(fn, c(i, j, k), c(i, j + 1, k));
          const double flux_s = fs * upwind(fs, c(i, j - 1, k), c(i, j, k));
          const double ch =
              c(i, j, k) * h_old(i, j, k) -
              dt * inv_area * (flux_e - flux_w + flux_n - flux_s);
          updated(i, j, k) = ch / h_new(i, j, k);
        }
      }
    }
    for (int k = 0; k < nk; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i) c(i, j, k) = updated(i, j, k);
  }

  KernelCost cost;
  const double points = static_cast<double>(box.ni) * box.nj * nk;
  // Per point per tracer: 4 mass fluxes (6 flops each incl. face
  // thickness), 4 upwind fluxes (2), update (6) ~= 38 flops.
  cost.flops = 38.0 * points * static_cast<double>(tracers.size());
  // Each pass streams a modest set of arrays (u, v, h_old, h_new, tracer,
  // scratch), so per-pass cache behaviour is comparatively benign — the
  // waste is the *recomputation*, not the locality.
  cost.cache_efficiency = 0.80;
  return cost;
}

KernelCost advect_tracers_optimized(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt) {
  const int nk = grid.nlev();
  // Host execution is delegated to the tiled, unrolled kernel engine, which
  // produces fields bitwise identical to the pre-engine implementation
  // (preserved verbatim in advection_seed_ref.cpp and cross-checked by
  // bench_kernel_engine and the dynamics tests). Scratch comes from the
  // per-rank KernelWorkspace, so the steady state allocates nothing.
  const kernels::AdvectionMetricsView mview{
      metrics.inv_area.data(), metrics.dy_face.data(),
      metrics.dx_vface.data()};
  kernels::advect_tracers_engine(mview, h_old, h_new, u, v, tracers, box.ni,
                                 box.nj, nk, dt,
                                 util::rank_local<kernels::KernelWorkspace>());

  // The virtual-cost model is the SEED's, unchanged: the engine reorganizes
  // host loops, not the modelled 1990s machine (docs/kernels.md).
  KernelCost cost;
  const double points = static_cast<double>(box.ni) * box.nj * nk;
  // Mass fluxes once (12 flops/point), then per tracer: 4 upwind fluxes (8)
  // plus the update (6).
  cost.flops =
      points * (12.0 + 14.0 * static_cast<double>(tracers.size()));
  // The fused loop references more concurrent streams (two flux arrays,
  // both thicknesses, every tracer and its scratch), which hurts the tiny
  // 1990s caches — the paper's own observation that a "better" data
  // structure for one loop can be worse for another. The net effect is
  // still a ~35% faster routine, dominated by the eliminated flops.
  cost.cache_efficiency = 0.66;
  return cost;
}

}  // namespace agcm::dynamics
