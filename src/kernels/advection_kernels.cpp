#include "kernels/advection_kernels.hpp"

#include <cstring>
#include <utility>

#include "kernels/simd/dispatch.hpp"

namespace agcm::kernels {

namespace {

/// Padding ahead of every scratch row: fx is indexed from -1, and the pad
/// keeps each row's element 0 on a 64-byte boundary.
constexpr std::size_t kRowLead = 8;

/// Distance between scratch rows: a whole number of cache lines.
std::size_t row_stride(int ni) {
  return kRowLead + (static_cast<std::size_t>(ni) + 7) / 8 * 8;
}

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
  // Scratch rows, all of one stride: fx, the fy rows of the current row's
  // south and north faces, then two update rows per tracer (rows j-1 and
  // j, by the parity of j).
  const std::size_t nt = tracers.size();
  const std::size_t stride = row_stride(ni);
  double* const base = ws.advection.take((3 + 2 * nt) * stride).data() +
                       kRowLead;
  double* const fxr = base;
  double* fy_south = base + stride;
  double* fy_north = base + 2 * stride;
  const auto update_row = [&](std::size_t t, int j) {
    return base + (3 + 2 * t + static_cast<std::size_t>(j & 1)) * stride;
  };
  const std::size_t row_bytes = static_cast<std::size_t>(ni) * sizeof(double);

  const grid::ConstFieldView hv = h_old.view();
  const grid::ConstFieldView hnv = h_new.view();
  const grid::ConstFieldView uv = u.view();
  const grid::ConstFieldView vv = v.view();

  // One dispatch-table fetch per engine call (resolved once per process).
  const simd::KernelOps& ops = simd::ops();

  for (int k = 0; k < nk; ++k) {
    // South-edge fluxes of row 0 (face j = -1/2).
    flux_y_row(ops, ni, m.dx_vface[0], vv.row(-1, k), hv.row(-1, k),
               hv.row(0, k), fy_south);

    for (int j = 0; j < nj; ++j) {
      // The row's fluxes, computed once and reused by every tracer.
      const double* __restrict hr = hv.row(j, k);
      flux_x_row(ops, ni, m.dy_face[j], uv.row(j, k), hr, fxr);
      flux_y_row(ops, ni, m.dx_vface[j + 1], vv.row(j, k), hr,
                 hv.row(j + 1, k), fy_north);

      for (std::size_t t = 0; t < nt; ++t) {
        const grid::FieldView cv = tracers[t]->view();
        ops.advect_update_row(ni, dt * m.inv_area[j], fxr, fy_north,
                              fy_south, cv.row(j, k), cv.row(j - 1, k),
                              cv.row(j + 1, k), hr, hnv.row(j, k),
                              update_row(t, j));
        // Row j was the last reader of row j-1's old values: commit it
        // (a bitwise copy, exactly the seed's assignment loop).
        if (j > 0)
          std::memcpy(cv.row(j - 1, k), update_row(t, j - 1), row_bytes);
      }
      std::swap(fy_south, fy_north);
    }
    for (std::size_t t = 0; t < nt; ++t)
      std::memcpy(tracers[t]->view().row(nj - 1, k), update_row(t, nj - 1),
                  row_bytes);
  }
}

}  // namespace agcm::kernels
