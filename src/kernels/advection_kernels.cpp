#include "kernels/advection_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "kernels/simd/dispatch.hpp"

namespace agcm::kernels {

namespace {

/// Rows per (k, j) tile of the fused flux+update sweep. A tile keeps its
/// flux rows cache-hot across every tracer's update pass; 8 rows of the
/// production shapes (ni <= a few hundred) fit comfortably in L1/L2
/// together with the tracer and thickness streams.
constexpr int kTileJ = 8;

// The row kernels below route through the SIMD dispatch table
// (kernels/simd/dispatch.hpp): flux_row covers both directions via pointer
// shifts, advect_update_row is the fused upwind update. Like every
// dispatched family, every tier is bitwise identical to the seed path, so
// dispatching them in production cannot perturb the frozen artefacts.

/// fx(i) = u(i) * 0.5 * (h(i) + h(i+1)) * dy for i in [-1, ni): the seed
/// expression, evaluated by the dispatched flux kernel with every pointer
/// shifted one point west (out[0] lands on fx(-1), hn = h + 1 supplies the
/// eastern thickness).
inline void flux_x_row(const simd::KernelOps& ops, int ni, double dy,
                       const double* ur, const double* hr, double* fxr) {
  ops.flux_row(ni + 1, dy, ur - 1, hr - 1, hr, fxr - 1);
}

/// fy(i) = v(i) * 0.5 * (h(i) + h_north(i)) * dx for i in [0, ni).
inline void flux_y_row(const simd::KernelOps& ops, int ni, double dx,
                       const double* vr, const double* hr, const double* hnr,
                       double* fyr) {
  ops.flux_row(ni, dx, vr, hr, hnr, fyr);
}

}  // namespace

void advect_tracers_engine(const AdvectionMetricsView& m,
                           const grid::Array3D<double>& h_old,
                           const grid::Array3D<double>& h_new,
                           const grid::Array3D<double>& u,
                           const grid::Array3D<double>& v,
                           std::span<grid::Array3D<double>* const> tracers,
                           int ni, int nj, int nk, double dt,
                           KernelWorkspace& ws) {
  grid::Array3D<double>& fx = ws.flux_x(ni, nj, nk);
  grid::Array3D<double>& fy = ws.flux_y(ni, nj, nk);
  std::span<grid::Array3D<double>> updates =
      ws.tracer_updates(tracers.size(), ni, nj, nk);

  const grid::ConstFieldView hv = h_old.view();
  const grid::ConstFieldView hnv = h_new.view();
  const grid::ConstFieldView uv = u.view();
  const grid::ConstFieldView vv = v.view();
  const grid::FieldView fxv = fx.view();
  const grid::FieldView fyv = fy.view();

  // One dispatch-table fetch per engine call (resolved once per process).
  const simd::KernelOps& ops = simd::ops();

  for (int k = 0; k < nk; ++k) {
    // South-edge fluxes of row 0 (face j = -1/2) before the tiles, so
    // the first tile's update rows can read fy row -1.
    flux_y_row(ops, ni, m.dx_vface[0], vv.row(-1, k), hv.row(-1, k),
               hv.row(0, k), fyv.row(-1, k));

    for (int j0 = 0; j0 < nj; j0 += kTileJ) {
      const int j1 = std::min(j0 + kTileJ, nj);

      // Flux rows of the tile (computed once, reused by every tracer).
      for (int j = j0; j < j1; ++j) {
        const double* __restrict hr = hv.row(j, k);
        flux_x_row(ops, ni, m.dy_face[j], uv.row(j, k), hr, fxv.row(j, k));
        flux_y_row(ops, ni, m.dx_vface[j + 1], vv.row(j, k), hr,
                   hv.row(j + 1, k), fyv.row(j, k));
      }

      // Fused tracer updates while the tile's fluxes are hot. The loop
      // order (tracer outer, i inner) transposes the seed's per-point
      // tracer loop; every (i, tracer) point is independent, so the
      // interchange moves no bits.
      for (std::size_t t = 0; t < tracers.size(); ++t) {
        const grid::ConstFieldView cv =
            static_cast<const grid::Array3D<double>&>(*tracers[t]).view();
        const grid::FieldView upv = updates[t].view();
        for (int j = j0; j < j1; ++j) {
          ops.advect_update_row(ni, dt * m.inv_area[j], fxv.row(j, k),
                                fyv.row(j, k), fyv.row(j - 1, k),
                                cv.row(j, k), cv.row(j - 1, k),
                                cv.row(j + 1, k), hv.row(j, k),
                                hnv.row(j, k), upv.row(j, k));
        }
      }
    }
  }

  // Commit: copy each update field back into its tracer's interior
  // (row-wise memcpy — a bitwise copy, exactly the seed's assignment loop).
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const grid::FieldView cv = tracers[t]->view();
    const grid::ConstFieldView upv =
        static_cast<const grid::Array3D<double>&>(updates[t]).view();
    const std::size_t row_bytes = static_cast<std::size_t>(ni) * sizeof(double);
    for (int k = 0; k < nk; ++k)
      for (int j = 0; j < nj; ++j)
        std::memcpy(cv.row(j, k), upv.row(j, k), row_bytes);
  }
}

}  // namespace agcm::kernels
