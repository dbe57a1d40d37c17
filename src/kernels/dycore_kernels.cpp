#include "kernels/dycore_kernels.hpp"

namespace agcm::kernels {

void continuity_row(int ni, double dy, double dxn, double dxs,
                    double step_inv_area, const double* __restrict u,
                    const double* __restrict v, const double* __restrict vs,
                    const double* __restrict h, const double* __restrict hn,
                    const double* __restrict hs, const double* __restrict hb,
                    double* __restrict out) {
  for (int i = 0; i < ni; ++i) {
    const double fe = u[i] * 0.5 * (h[i] + h[i + 1]) * dy;
    const double fw = u[i - 1] * 0.5 * (h[i - 1] + h[i]) * dy;
    const double fn = v[i] * 0.5 * (h[i] + hn[i]) * dxn;
    const double fs = vs[i] * 0.5 * (hs[i] + h[i]) * dxs;
    out[i] = hb[i] - step_inv_area * (fe - fw + fn - fs);
  }
}

void momentum_u_row(int ni, const MomentumCoeffs& c, double f_u, double dx_u,
                    const double* __restrict v, const double* __restrict vs,
                    const double* __restrict hp, const double* __restrict ub,
                    const double* __restrict un, const double* __restrict us,
                    double* __restrict out) {
  const double g = c.g, kappa = c.kappa, step = c.step;
  const double smooth_scale = c.smooth_scale;
  for (int i = 0; i < ni; ++i) {
    const double vbar = 0.25 * (v[i] + v[i + 1] + vs[i] + vs[i + 1]);
    const double pgf_x = -g * (hp[i + 1] - hp[i]) / dx_u;
    // Grid-space del-2 smoothing (see DynamicsConfig::kappa_smooth).
    const double smooth_u = kappa * (ub[i + 1] + ub[i - 1] - 2.0 * ub[i]) +
                            kappa * (un[i] + us[i] - 2.0 * ub[i]);
    out[i] = ub[i] + step * (f_u * vbar + pgf_x) + smooth_scale * smooth_u;
  }
}

void momentum_v_row(int ni, const MomentumCoeffs& c, double f_v, double dy,
                    const double* __restrict u, const double* __restrict un,
                    const double* __restrict hp, const double* __restrict hpn,
                    const double* __restrict vb, const double* __restrict vn,
                    const double* __restrict vs, double* __restrict out) {
  const double g = c.g, kappa = c.kappa, step = c.step;
  const double smooth_scale = c.smooth_scale;
  for (int i = 0; i < ni; ++i) {
    const double ubar = 0.25 * (u[i] + u[i - 1] + un[i] + un[i - 1]);
    const double pgf_y = -g * (hpn[i] - hp[i]) / dy;
    const double smooth_v = kappa * (vb[i + 1] + vb[i - 1] - 2.0 * vb[i]) +
                            kappa * (vn[i] + vs[i] - 2.0 * vb[i]);
    out[i] = vb[i] + step * (-f_v * ubar + pgf_y) + smooth_scale * smooth_v;
  }
}

}  // namespace agcm::kernels
