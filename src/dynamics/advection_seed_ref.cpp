// The paper's baseline loop and the pre-engine optimized advection path,
// verbatim (see the header). Do not "improve" this file: its whole value is
// that it is the seed.
#include "dynamics/advection_seed_ref.hpp"

#include <vector>

namespace agcm::dynamics {

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
  return advection_cost(/*optimized=*/false, box, nk, tracers.size());
}

KernelCost advect_tracers_optimized_seed_ref(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt) {
  const int nk = grid.nlev();
  // Mass fluxes computed once and reused by every tracer (the paper's
  // "eliminating or minimizing redundant calculations in nested loops").
  grid::Array3D<double> fx(box.ni, box.nj, nk, /*ghost=*/1);
  grid::Array3D<double> fy(box.ni, box.nj, nk, /*ghost=*/1);
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < box.nj; ++j) {
      const double dy = metrics.dy_face[static_cast<std::size_t>(j)];
      const double dxn = metrics.dx_vface[static_cast<std::size_t>(j) + 1];
      for (int i = -1; i < box.ni; ++i) {
        fx(i, j, k) =
            u(i, j, k) * 0.5 * (h_old(i, j, k) + h_old(i + 1, j, k)) * dy;
      }
      for (int i = 0; i < box.ni; ++i) {
        fy(i, j, k) =
            v(i, j, k) * 0.5 * (h_old(i, j, k) + h_old(i, j + 1, k)) * dxn;
      }
    }
    // The south-edge fluxes of row 0 (face j = -1/2).
    {
      const double dxs = metrics.dx_vface[0];
      for (int i = 0; i < box.ni; ++i) {
        fy(i, -1, k) =
            v(i, -1, k) * 0.5 * (h_old(i, -1, k) + h_old(i, 0, k)) * dxs;
      }
    }
  }

  std::vector<grid::Array3D<double>> updated;
  updated.reserve(tracers.size());
  for (std::size_t t = 0; t < tracers.size(); ++t)
    updated.emplace_back(box.ni, box.nj, nk, 0);

  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < box.nj; ++j) {
      const double inv_area = metrics.inv_area[static_cast<std::size_t>(j)];
      const double dt_inv_area = dt * inv_area;  // hoisted invariant
      for (int i = 0; i < box.ni; ++i) {
        const double fe = fx(i, j, k);
        const double fw = fx(i - 1, j, k);
        const double fn = fy(i, j, k);
        const double fs = fy(i, j - 1, k);
        // Loops fused over tracers: one traversal of the flux arrays.
        // (Division kept per tracer so results match the baseline bit for
        // bit — the win here is flux reuse and fusion, not strength
        // reduction.)
        for (std::size_t t = 0; t < tracers.size(); ++t) {
          const grid::Array3D<double>& c = *tracers[t];
          const double flux_e = fe * upwind(fe, c(i, j, k), c(i + 1, j, k));
          const double flux_w = fw * upwind(fw, c(i - 1, j, k), c(i, j, k));
          const double flux_n = fn * upwind(fn, c(i, j, k), c(i, j + 1, k));
          const double flux_s = fs * upwind(fs, c(i, j - 1, k), c(i, j, k));
          const double ch = c(i, j, k) * h_old(i, j, k) -
                            dt_inv_area * (flux_e - flux_w + flux_n - flux_s);
          updated[t](i, j, k) = ch / h_new(i, j, k);
        }
      }
    }
  }
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    grid::Array3D<double>& c = *tracers[t];
    for (int k = 0; k < nk; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i) c(i, j, k) = updated[t](i, j, k);
  }

  return advection_cost(/*optimized=*/true, box, nk, tracers.size());
}

}  // namespace agcm::dynamics
