#include "physics/column.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "kernels/column_kernels.hpp"
#include "kernels/workspace.hpp"
#include "linsolve/tridiag.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace agcm::physics {

const char* physics_regime_name(PhysicsRegime regime) {
  switch (regime) {
    case PhysicsRegime::kEquinox: return "equinox";
    case PhysicsRegime::kJuneSolstice: return "june-solstice";
    case PhysicsRegime::kDecemberSolstice: return "december-solstice";
  }
  return "equinox";
}

double regime_declination_rad(PhysicsRegime regime) {
  // Earth's obliquity; positive declination = sun over the northern
  // hemisphere.
  constexpr double kObliquityRad = 23.44 * std::numbers::pi / 180.0;
  switch (regime) {
    case PhysicsRegime::kEquinox: return 0.0;
    case PhysicsRegime::kJuneSolstice: return kObliquityRad;
    case PhysicsRegime::kDecemberSolstice: return -kObliquityRad;
  }
  return 0.0;
}

double cos_solar_zenith(double lat, double lon, double time_sec,
                        double declination_rad) {
  // Hour angle: the sun is overhead at lon = 0 at time 0 and sweeps
  // westward with the 24-hour cycle.
  const double hour_angle =
      2.0 * std::numbers::pi * (time_sec / 86400.0) + lon;
  return std::sin(lat) * std::sin(declination_rad) +
         std::cos(lat) * std::cos(declination_rad) * std::cos(hour_angle);
}

ColumnResult step_column(const ColumnParams& params, std::uint64_t column_id,
                         std::int64_t step, double lat, double lon,
                         double time_sec, std::span<double> theta,
                         std::span<double> q) {
  const int nlev = params.nlev;
  AGCM_ASSERT(static_cast<int>(theta.size()) == nlev);
  AGCM_ASSERT(static_cast<int>(q.size()) == nlev);
  ColumnResult result;

  // Deterministic per-(column, step) stream: identical wherever computed.
  Rng rng = Rng::for_stream(params.seed ^ (static_cast<std::uint64_t>(step) *
                                           0x9E3779B97F4A7C15ULL),
                            column_id);

  // --- cloud field: slowly varying random fraction, moister -> cloudier --
  double column_q = 0.0;
  for (double v : q) column_q += v;
  result.cloud_fraction = std::clamp(
      0.25 + 18.0 * column_q / nlev + 0.35 * (rng.uniform() - 0.5), 0.0, 1.0);

  // --- shortwave: daytime only; heats the column top-down ----------------
  const double mu =
      cos_solar_zenith(lat, lon, time_sec, params.solar_declination_rad);
  result.daytime = mu > 0.0;
  if (result.daytime) {
    const double clear = 1.0 - 0.62 * result.cloud_fraction;
    double transmitted = 1370.0 * mu * clear;  // W/m^2 at column top
    for (int k = nlev - 1; k >= 0; --k) {
      const double absorbed = transmitted * 0.06;
      transmitted -= absorbed;
      // ~1 K/day of heating at full sun, scaled to this layer's share.
      theta[static_cast<std::size_t>(k)] +=
          params.dt_sec * absorbed / (86400.0 * 10.0);
    }
    result.flops += params.flops_shortwave_per_layer * nlev *
                    (0.8 + 0.4 * result.cloud_fraction);
  }

  // One KernelWorkspace borrow per column, carved into the longwave
  // emissivity table and the four tridiagonal spans the implicit-diffusion
  // solve needs: [emis | sub | diag | sup | cp]. Growth-only, so the warm
  // path allocates nothing (tests/test_kernel_alloc.cpp). The emis segment
  // is reserved even when the shared table below supersedes it, keeping
  // the borrow size (and thus the workspace high-water mark) cache-independent.
  const std::size_t n = static_cast<std::size_t>(nlev);
  std::span<double> scratch =
      util::rank_local<kernels::KernelWorkspace>().column.take(5 * n);

  // --- longwave: all layer pairs exchange (O(K^2)) -----------------------
  // Hot sweep in the kernel engine: distance-indexed emissivity table
  // (identical per-pair expression -> identical bits) and a branch-free,
  // unrolled pair loop. Bitwise identical to step_column_seed_ref. The
  // table comes from the process-wide shared cache when available (same
  // fill function, so identical bits); otherwise it is refilled into the
  // scratch segment per column exactly as the seed did.
  const double* emis = kernels::shared_longwave_emissivity(nlev);
  if (emis == nullptr) {
    kernels::fill_longwave_emissivity(scratch.data(), nlev);
    emis = scratch.data();
  }
  kernels::longwave_sweep(theta.data(), nlev, emis, params.dt_sec);
  result.flops += params.flops_longwave_per_pair * nlev * nlev;

  // --- cumulus convection: adjust conditionally unstable profiles --------
  // theta must not decrease with height by more than the (cloud-modulated)
  // threshold; unstable pairs are mixed iteratively, releasing latent heat
  // from q. The iteration count — hence the cost — depends on the actual
  // state: "the unpredictability of ... the distribution of cumulus
  // convection implies an estimation of computation load ... is required".
  const double threshold = 0.15 * (1.0 - 0.5 * result.cloud_fraction);
  const int iters = kernels::convection_sweep(
      theta.data(), q.data(), nlev, threshold, params.max_convection_iters,
      result.precipitation);
  result.convection_iters = iters;
  result.flops +=
      params.flops_convection_per_layer_iter * nlev * std::max(1, iters);

  // --- implicit vertical diffusion (boundary-layer mixing) ---------------
  // (I - K d2/dz2) x_new = x with Neumann ends: unconditionally stable, so
  // one Thomas solve per profile replaces many explicit sub-steps. Solved
  // in place (thomas_solve_into allows x to alias d) with workspace bands —
  // the seed path's per-call band vectors and profile copies are gone.
  if (params.implicit_diffusion > 0.0 && nlev >= 2) {
    const double kdiff = params.implicit_diffusion;
    const std::span<double> sub = scratch.subspan(n, n);
    const std::span<double> diag = scratch.subspan(2 * n, n);
    const std::span<double> sup = scratch.subspan(3 * n, n);
    const std::span<double> cp = scratch.subspan(4 * n, n);
    std::fill(sub.begin(), sub.end(), -kdiff);
    std::fill(diag.begin(), diag.end(), 1.0 + 2.0 * kdiff);
    std::fill(sup.begin(), sup.end(), -kdiff);
    diag.front() = 1.0 + kdiff;  // Neumann (no flux through the ends)
    diag.back() = 1.0 + kdiff;
    linsolve::thomas_solve_into(sub, diag, sup, theta, theta, cp);
    linsolve::thomas_solve_into(sub, diag, sup, q, q, cp);
    result.flops += 2.0 * linsolve::thomas_flops(nlev);
  }

  // Moist processes keep q non-negative and bounded.
  for (double& v : q) v = std::clamp(v, 0.0, 0.04);

  return result;
}

}  // namespace agcm::physics
