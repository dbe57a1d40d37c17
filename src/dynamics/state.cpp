#include "dynamics/state.hpp"

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace agcm::dynamics {

State::State(const grid::LocalBox& box, int nlev)
    : h(box.ni, box.nj, nlev, /*ghost=*/1),
      u(box.ni, box.nj, nlev, /*ghost=*/1),
      v(box.ni, box.nj, nlev, /*ghost=*/1),
      theta(box.ni, box.nj, nlev, /*ghost=*/1),
      q(box.ni, box.nj, nlev, /*ghost=*/1) {}

void initialize_state(State& state, const grid::LatLonGrid& grid,
                      const grid::LocalBox& box, std::uint64_t seed) {
  const double h0 = 8000.0;       // mean equivalent depth (m)
  const double jet_speed = 25.0;  // m/s
  const double g = grid.planet().gravity;
  const double omega = grid.planet().omega;
  const double a = grid.planet().radius_m;

  // Every factor below that depends only on the column (i) or only on the
  // row and layer (j, k) is evaluated once, with the same operations the
  // per-point expressions used, so the fields keep every bit.
  std::vector<double> wave(static_cast<std::size_t>(box.ni));
  for (int i = 0; i < box.ni; ++i)
    wave[static_cast<std::size_t>(i)] =
        8.0 * std::cos(4.0 * grid.lon_center(box.i0 + i));

  for (int k = 0; k < grid.nlev(); ++k) {
    const double layer_scale = 1.0 + 0.15 * k;  // faster aloft
    for (int j = 0; j < box.nj; ++j) {
      const int gj = box.j0 + j;
      const double lat = grid.lat_center(gj);
      const double lat_face = grid.lat_vface(gj + 1);
      const double sin_lat = std::sin(lat);
      // Zonal jet peaking at +-45 degrees.
      const double jet = jet_speed * layer_scale * std::sin(2.0 * lat) *
                         std::sin(2.0 * lat);
      // Geostrophically consistent height depression under the jet:
      // dh/dphi = -(a f u)/g with f = 2 Omega sin(phi); we use the
      // closed-form integral of the jet profile above.
      const double f = 2.0 * omega * sin_lat;
      const double hbal = h0 - (a / g) * f * jet * 0.35;  // approximate balance
      // Small deterministic wavenumber-4 perturbation, amplified toward
      // the poles so the polar filter has real work to do.
      const double polar_boost = 1.0 + 3.0 * std::pow(sin_lat, 8.0);
      const double u_face = jet * std::cos(lat_face * 0.0);  // u on east face
      // Warm equator, cold poles; stable-ish stratification with layer.
      const double theta_row = 300.0 - 40.0 * sin_lat * sin_lat + 3.0 * k;
      // Moist tropics.
      const double q_row = 0.018 * std::exp(-std::pow(lat / 0.45, 2.0)) *
                           std::exp(-0.35 * k);
      double* const h_row = state.h.view().row(j, k);
      double* const u_row = state.u.view().row(j, k);
      double* const v_row = state.v.view().row(j, k);
      double* const theta_out = state.theta.view().row(j, k);
      double* const q_out = state.q.view().row(j, k);
      for (int i = 0; i < box.ni; ++i) {
        const int gi = box.i0 + i;
        Rng rng = Rng::for_stream(seed, (static_cast<std::uint64_t>(k) << 32) ^
                                            (static_cast<std::uint64_t>(gj) << 16) ^
                                            static_cast<std::uint64_t>(gi));
        const double bump =
            (wave[static_cast<std::size_t>(i)] + 2.0 * (rng.uniform() - 0.5)) *
            polar_boost;
        h_row[i] = hbal + bump;
        u_row[i] = u_face;
        v_row[i] = 0.0;
        theta_out[i] = theta_row + 0.5 * (rng.uniform() - 0.5);
        q_out[i] = q_row * (1.0 + 0.1 * (rng.uniform() - 0.5));
      }
    }
  }
  state.time_sec = 0.0;
  state.step = 0;
}

}  // namespace agcm::dynamics
