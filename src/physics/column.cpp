#include "physics/column.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "kernels/column_kernels.hpp"
#include "kernels/simd/dispatch.hpp"
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

namespace {

/// The latitude terms of cos_solar_zenith, mu = sin_term + cos_term *
/// cos(hour_angle). They depend on the row only.
struct SolarRow {
  double sin_term;  ///< sin(lat) sin(declination)
  double cos_term;  ///< cos(lat) cos(declination)
};

SolarRow solar_row(double lat, double declination_rad) {
  return {std::sin(lat) * std::sin(declination_rad),
          std::cos(lat) * std::cos(declination_rad)};
}

double cos_solar_zenith(const SolarRow& row, double lon, double time_sec) {
  // Hour angle: the sun is overhead at lon = 0 at time 0 and sweeps
  // westward with the 24-hour cycle.
  const double hour_angle =
      2.0 * std::numbers::pi * (time_sec / 86400.0) + lon;
  return row.sin_term + row.cos_term * std::cos(hour_angle);
}

/// Stage 1 of one column, scalar: cloud field and shortwave heating, given
/// the column's cos(solar zenith) `mu`.
ColumnResult cloud_and_shortwave(const ColumnParams& params,
                                 std::int64_t step, double mu,
                                 const ColumnSite& col) {
  const int nlev = params.nlev;
  ColumnResult result;

  // Deterministic per-(column, step) stream: identical wherever computed.
  Rng rng = Rng::for_stream(params.seed ^ (static_cast<std::uint64_t>(step) *
                                           0x9E3779B97F4A7C15ULL),
                            col.id);

  // --- cloud field: slowly varying random fraction, moister -> cloudier --
  double column_q = 0.0;
  for (int k = 0; k < nlev; ++k) column_q += col.q[k];
  result.cloud_fraction = std::clamp(
      0.25 + 18.0 * column_q / nlev + 0.35 * (rng.uniform() - 0.5), 0.0, 1.0);

  // --- shortwave: daytime only; heats the column top-down ----------------
  result.daytime = mu > 0.0;
  if (result.daytime) {
    const double clear = 1.0 - 0.62 * result.cloud_fraction;
    double transmitted = 1370.0 * mu * clear;  // W/m^2 at column top
    for (int k = nlev - 1; k >= 0; --k) {
      const double absorbed = transmitted * 0.06;
      transmitted -= absorbed;
      // ~1 K/day of heating at full sun, scaled to this layer's share.
      col.theta[k] += params.dt_sec * absorbed / (86400.0 * 10.0);
    }
    result.flops += params.flops_shortwave_per_layer * nlev *
                    (0.8 + 0.4 * result.cloud_fraction);
  }
  return result;
}

using Profile = double* ColumnSite::*;

/// panel[k * batch.size() + l] = level k of column l's `profile`.
void gather(std::span<const ColumnSite> batch, Profile profile, int nlev,
            double* panel) {
  const std::size_t lanes = batch.size();
  for (std::size_t l = 0; l < lanes; ++l) {
    const double* x = batch[l].*profile;
    for (int k = 0; k < nlev; ++k)
      panel[static_cast<std::size_t>(k) * lanes + l] = x[k];
  }
}

/// The inverse of gather().
void scatter(std::span<const ColumnSite> batch, Profile profile, int nlev,
             const double* panel) {
  const std::size_t lanes = batch.size();
  for (std::size_t l = 0; l < lanes; ++l) {
    double* x = batch[l].*profile;
    for (int k = 0; k < nlev; ++k)
      x[k] = panel[static_cast<std::size_t>(k) * lanes + l];
  }
}

}  // namespace

double cos_solar_zenith(double lat, double lon, double time_sec,
                        double declination_rad) {
  return cos_solar_zenith(solar_row(lat, declination_rad), lon, time_sec);
}

void step_columns(const ColumnParams& params, std::int64_t step,
                  double time_sec, std::span<const ColumnSite> columns,
                  std::span<ColumnResult> results) {
  AGCM_ASSERT(results.size() == columns.size());
  const int nlev = params.nlev;
  const auto n = static_cast<std::size_t>(nlev);
  const simd::KernelOps& ops = simd::ops();
  const std::size_t width = ops.column_lanes;

  // One KernelWorkspace borrow per call: [panel | emis | a | cp | denom].
  // The panel holds one profile of a batch level-major (nlev x width, the
  // first 64-byte-aligned bytes of the borrow), and serves the longwave
  // exchange, then the theta solve, then the q solve. Growth-only, so the
  // warm path allocates nothing (tests/test_kernel_alloc.cpp). The emis
  // segment is reserved even when the shared table below supersedes it,
  // keeping the borrow size (and thus the workspace high-water mark)
  // cache-independent.
  const std::span<double> scratch =
      util::rank_local<kernels::KernelWorkspace>().column.take(n * width +
                                                               4 * n);
  double* panel = scratch.data();
  double* emis_scratch = panel + n * width;
  double* a = emis_scratch + n;
  double* cp = a + n;
  double* denom = cp + n;

  // --- longwave: all layer pairs exchange (O(K^2)) -----------------------
  // Distance-indexed emissivity table (the seed's per-pair expression
  // evaluated once per distance, so identical bits), from the process-wide
  // shared cache when available, else filled into the scratch segment.
  const double* emis = kernels::shared_longwave_emissivity(nlev);
  if (emis == nullptr) {
    kernels::fill_longwave_emissivity(emis_scratch, nlev);
    emis = emis_scratch;
  }

  // --- implicit vertical diffusion (boundary-layer mixing) ---------------
  // (I - K d2/dz2) x_new = x with Neumann ends: unconditionally stable, so
  // one Thomas solve per profile replaces many explicit sub-steps. Every
  // column solves the same matrix, so its pivots are computed once here,
  // with linsolve::thomas_solve_into's expressions.
  const bool diffuse = params.implicit_diffusion > 0.0 && nlev >= 2;
  if (diffuse) {
    const double off = -params.implicit_diffusion;  // sub/super-diagonal
    const double inner = 1.0 + 2.0 * params.implicit_diffusion;
    const double end = 1.0 + params.implicit_diffusion;  // Neumann ends
    denom[0] = end;
    cp[0] = off / end;
    for (std::size_t k = 1; k < n; ++k) {
      a[k] = off;
      denom[k] = (k + 1 == n ? end : inner) - off * cp[k - 1];
      cp[k] = off / denom[k];
    }
  }

  // The zenith angle's latitude terms, recomputed only when the latitude
  // changes (consecutive columns mostly share a row).
  SolarRow row{};
  std::uint64_t row_lat = 0;
  bool have_row = false;

  for (std::size_t b0 = 0; b0 < columns.size(); b0 += width) {
    const std::size_t lanes = std::min(width, columns.size() - b0);
    const std::span<const ColumnSite> batch = columns.subspan(b0, lanes);
    const std::span<ColumnResult> out = results.subspan(b0, lanes);

    for (std::size_t l = 0; l < lanes; ++l) {
      const ColumnSite& col = batch[l];
      const auto lat_bits = std::bit_cast<std::uint64_t>(col.lat);
      if (!have_row || lat_bits != row_lat) {
        row = solar_row(col.lat, params.solar_declination_rad);
        row_lat = lat_bits;
        have_row = true;
      }
      out[l] = cloud_and_shortwave(
          params, step, cos_solar_zenith(row, col.lon, time_sec), col);
    }

    gather(batch, &ColumnSite::theta, nlev, panel);
    ops.longwave_lanes(nlev, lanes, lanes, emis, params.dt_sec, panel);
    scatter(batch, &ColumnSite::theta, nlev, panel);

    // --- cumulus convection: adjust conditionally unstable profiles ------
    // theta must not decrease with height by more than the (cloud-
    // modulated) threshold; unstable pairs are mixed iteratively,
    // releasing latent heat from q. The iteration count — hence the cost —
    // depends on the actual state: "the unpredictability of ... the
    // distribution of cumulus convection implies an estimation of
    // computation load ... is required". It stays scalar per column: its
    // iteration count differs from column to column.
    for (std::size_t l = 0; l < lanes; ++l) {
      ColumnResult& result = out[l];
      result.flops += params.flops_longwave_per_pair * nlev * nlev;
      const double threshold = 0.15 * (1.0 - 0.5 * result.cloud_fraction);
      const int iters = kernels::convection_sweep(
          batch[l].theta, batch[l].q, nlev, threshold,
          params.max_convection_iters, result.precipitation);
      result.convection_iters = iters;
      result.flops +=
          params.flops_convection_per_layer_iter * nlev * std::max(1, iters);
    }

    if (diffuse) {
      for (const Profile profile : {&ColumnSite::theta, &ColumnSite::q}) {
        gather(batch, profile, nlev, panel);
        ops.thomas_lanes(nlev, lanes, lanes, a, cp, denom, panel);
        scatter(batch, profile, nlev, panel);
      }
      for (ColumnResult& result : out)
        result.flops += 2.0 * linsolve::thomas_flops(nlev);
    }

    // Moist processes keep q non-negative and bounded.
    for (const ColumnSite& col : batch) {
      for (int k = 0; k < nlev; ++k) col.q[k] = std::clamp(col.q[k], 0.0, 0.04);
    }
  }
}

ColumnResult step_column(const ColumnParams& params, std::uint64_t column_id,
                         std::int64_t step, double lat, double lon,
                         double time_sec, std::span<double> theta,
                         std::span<double> q) {
  AGCM_ASSERT(static_cast<int>(theta.size()) == params.nlev);
  AGCM_ASSERT(static_cast<int>(q.size()) == params.nlev);
  const ColumnSite site{column_id, lat, lon, theta.data(), q.data()};
  ColumnResult result;
  step_columns(params, step, time_sec, {&site, 1}, {&result, 1});
  return result;
}

}  // namespace agcm::physics
