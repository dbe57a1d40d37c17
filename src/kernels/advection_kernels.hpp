// Row-streamed tracer-advection engine — the industrialized form of the
// paper's Section 3.4 single-node optimization of the advection routine.
//
// Produces fields BITWISE IDENTICAL to the paper's baseline loop and to the
// pre-engine optimized path (both preserved in dynamics/advection_seed_ref):
// the per-point operation order of every arithmetic statement is the
// seed's; what changes is everything around it —
//   * all field accesses go through grid::FieldView raw-pointer rows
//     (no Array3D::at ghost arithmetic),
//   * each k-slab is streamed row by row: row j's fluxes are computed once
//     into O(ni) scratch rows and consumed at once by every tracer's
//     update of row j, so they never leave L1,
//   * update row j-1 is committed into its tracer as soon as row j is
//     computed (row j is the last reader of row j-1's old values), so each
//     tracer needs two update rows, not a full update field,
//   * the row kernels come from the SIMD dispatch table; every point is
//     independent, so unrolling and vectorizing cannot change bits,
//   * all scratch comes from one growth-only buffer in the per-rank
//     KernelWorkspace — zero heap allocation in steady state.
//
// The engine does NOT touch the virtual clock: callers charge the selected
// variant's dynamics::advection_cost(), keeping every frozen virtual-time
// artefact byte-identical (docs/kernels.md).
#pragma once

#include <span>

#include "grid/array3d.hpp"
#include "kernels/workspace.hpp"

namespace agcm::kernels {

/// Per-row metric factors, viewed from dynamics::Metrics: `inv_area` and
/// `dy_face` have one entry per local j row, `dx_vface` one per v-face
/// (nj + 1 entries).
struct AdvectionMetricsView {
  const double* inv_area;
  const double* dy_face;
  const double* dx_vface;
};

/// Advances `tracers` in place (interior ni x nj x nk, ghost >= 1, halos
/// current) by dt with upwind fluxes from (u, v, h_old); bitwise identical
/// to the seed paths. Scratch rows live in `ws.advection`.
void advect_tracers_engine(const AdvectionMetricsView& m,
                           const grid::Array3D<double>& h_old,
                           const grid::Array3D<double>& h_new,
                           const grid::Array3D<double>& u,
                           const grid::Array3D<double>& v,
                           std::span<grid::Array3D<double>* const> tracers,
                           int ni, int nj, int nk, double dt,
                           KernelWorkspace& ws);

}  // namespace agcm::kernels
