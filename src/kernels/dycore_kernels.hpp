// Unit-stride row kernels of the C-grid FD sweeps (Dynamics::continuity and
// Dynamics::momentum) — the paper's Section 3.4 recipe applied to the
// simulator's own dycore: the per-row invariants (Coriolis parameters,
// dx_u, face lengths, step / area) come from dynamics::Metrics, computed
// once per rank block instead of once per point; the caller picks the
// north/south neighbour rows by pointer instead of a per-point ternary;
// and the u and v updates run as two separate loops.
//
// Every per-point expression is the one Dynamics used to evaluate through
// Array3D::operator(), with the same operations in the same order: no
// reciprocal in place of a division, no FMA, no reassociation (the
// one-accumulator contract, docs/kernels.md). Points are independent, so
// the compiler may vectorize the loops without changing a bit. The
// kernels are compiled with the build's default flags and are not in the
// SIMD dispatch table.
//
// Row pointers address interior element 0 of their row; `[-1]` and `[ni]`
// must be valid wherever a kernel reads an east or west neighbour (every
// field they read has ghost >= 1).
#pragma once

namespace agcm::kernels {

/// out[i] = hb[i] - step_inv_area * (fe - fw + fn - fs), with the mass
/// fluxes through the cell's four faces
///   fe = u[i]   * 0.5 * (h[i]   + h[i+1]) * dy
///   fw = u[i-1] * 0.5 * (h[i-1] + h[i])   * dy
///   fn = v[i]   * 0.5 * (h[i]   + hn[i])  * dxn
///   fs = vs[i]  * 0.5 * (hs[i]  + h[i])   * dxs
/// where `hn`/`hs` are the thickness rows north/south of `h` and `vs` is
/// the v row of the south face.
void continuity_row(int ni, double dy, double dxn, double dxs,
                    double step_inv_area, const double* u, const double* v,
                    const double* vs, const double* h, const double* hn,
                    const double* hs, const double* hb, double* out);

/// The coefficients every momentum row shares.
struct MomentumCoeffs {
  double g;             ///< gravity
  double kappa;         ///< del-2 smoothing coefficient
  double step;          ///< time step of the tendency
  double smooth_scale;  ///< weight of the smoothing term
};

/// u on the east face of each cell of a row:
///   vbar     = 0.25 * (v[i] + v[i+1] + vs[i] + vs[i+1])
///   pgf      = -g * (hp[i+1] - hp[i]) / dx_u
///   smooth   = kappa * (ub[i+1] + ub[i-1] - 2 ub[i])
///            + kappa * (un[i] + us[i] - 2 ub[i])
///   out[i]   = ub[i] + step * (f_u * vbar + pgf) + smooth_scale * smooth
/// `v`/`vs` are the v rows of the row's north and south faces, `ub` the
/// base u row and `un`/`us` its north/south neighbours (the row itself at
/// a global edge).
void momentum_u_row(int ni, const MomentumCoeffs& c, double f_u, double dx_u,
                    const double* v, const double* vs, const double* hp,
                    const double* ub, const double* un, const double* us,
                    double* out);

/// v on the north face of each cell of a non-polar row:
///   ubar     = 0.25 * (u[i] + u[i-1] + un[i] + un[i-1])
///   pgf      = -g * (hpn[i] - hp[i]) / dy
///   smooth   = kappa * (vb[i+1] + vb[i-1] - 2 vb[i])
///            + kappa * (vn[i] + vs[i] - 2 vb[i])
///   out[i]   = vb[i] + step * (-f_v * ubar + pgf) + smooth_scale * smooth
/// `u`/`un` are the u rows of this row and the one north of it, `hp`/`hpn`
/// the thickness rows either side of the face, `vb` the base v row and
/// `vn`/`vs` its north/south neighbours.
void momentum_v_row(int ni, const MomentumCoeffs& c, double f_v, double dy,
                    const double* u, const double* un, const double* hp,
                    const double* hpn, const double* vb, const double* vn,
                    const double* vs, double* out);

}  // namespace agcm::kernels
