// Column physics emulator.
//
// AGCM/Physics "computes the effect of processes not resolved by the
// model's grid" — entirely column-local, no interprocessor communication
// under the 2-D decomposition (paper Section 3.4). Its computational load
// varies in space and time: "the amount of computation required at each
// grid point is determined by several factors, including whether it is day
// or night, the cloud distribution, and the amount of cumulus convection
// determined by the conditional stability of the atmosphere."
//
// This module reproduces each of those cost drivers with a real (if
// simplified) calculation:
//   * shortwave radiation    — runs only where the sun is up (solar zenith
//     from latitude, longitude and time of day); O(K) with a cloud factor,
//   * longwave radiation     — layer-pair exchange, O(K^2) (the paper's
//     single-node study picks "a routine involved in the longwave radiation
//     calculation" as a heavy kernel),
//   * cumulus convection     — iterative convective adjustment triggered by
//     conditional instability of the actual theta profile; unpredictable
//     because it depends on the evolving state and the cloud field.
//
// Every column's result and cost depend only on (inputs, global column id,
// step, seed) — never on which rank computes it — so load balancing cannot
// change the answers (the integration tests verify this).
#pragma once

#include <cstdint>
#include <span>

namespace agcm::physics {

/// Seasonal insolation regime: sets the solar declination, which moves the
/// day/night terminator and hence the *shape* of the physics load field the
/// balancing schemes have to chew on. Equinox (declination 0) lights every
/// latitude for half its longitudes — the historical default, so frozen
/// artefacts keep their bits. The solstices tilt the terminator by the
/// Earth's obliquity: one polar cap computes shortwave for every column
/// while the other computes none, concentrating load in one mesh row.
enum class PhysicsRegime {
  kEquinox,           ///< declination 0 (default)
  kJuneSolstice,      ///< declination +23.44 deg: northern summer
  kDecemberSolstice,  ///< declination -23.44 deg: southern summer
};

/// Canonical config-file name: "equinox", "june-solstice",
/// "december-solstice".
const char* physics_regime_name(PhysicsRegime regime);

/// The regime's solar declination in radians (0 for equinox).
double regime_declination_rad(PhysicsRegime regime);

struct ColumnParams {
  int nlev = 9;
  double dt_sec = 450.0;
  double solar_declination_rad = 0.0;  ///< equinox by default
  /// Cost-model coefficients (flops). Calibrated once so that (a) the
  /// 1-node 144x90x9 Paragon physics cost lands at the paper's scale
  /// (total - Dynamics in Table 4, ~5300 s/day) and (b) the day/night cost
  /// contrast produces the 35-48% pre-balancing imbalance of Tables 1-3.
  double flops_shortwave_per_layer = 560.0;
  double flops_longwave_per_pair = 30.0;
  double flops_convection_per_layer_iter = 120.0;
  int max_convection_iters = 12;
  /// Implicit vertical (boundary-layer) diffusion strength, dimensionless
  /// K dt / dz^2. Solved with the Thomas algorithm each step — the
  /// "implicit time-differencing scheme" whose solvers Section 5 lists as
  /// a reusable GCM component. 0 disables.
  double implicit_diffusion = 0.08;
  std::uint64_t seed = 42;
};

/// Inputs: theta and q profiles (bottom to top). Outputs written in place:
/// theta and q after heating/adjustment. Returns the cost in flops actually
/// expended (charged by the caller to the virtual clock and reused as the
/// next step's load estimate).
struct ColumnResult {
  double flops = 0.0;
  bool daytime = false;
  int convection_iters = 0;
  double cloud_fraction = 0.0;
  double precipitation = 0.0;  ///< column moisture removed (kg/kg summed)
};

/// One column handed to the column engine: where it is and where its
/// profiles live. `id` must be the *global* id (gj * nlon + gi) so results
/// are decomposition-independent; `lat`/`lon` in radians; `theta` and `q`
/// each point at params.nlev levels (bottom to top), updated in place.
struct ColumnSite {
  std::uint64_t id = 0;
  double lat = 0.0;
  double lon = 0.0;
  double* theta = nullptr;
  double* q = nullptr;
};

/// The column engine: steps every column of `columns` and writes its
/// result to the same index of `results` (same size). The columns run in
/// batches of simd::ops().column_lanes, each column in a SIMD lane through
/// the longwave exchange and the implicit diffusion; every column's bits
/// and flops are those of the one-column sequence (step_column_seed_ref),
/// on every dispatch tier. Scratch comes from the rank's KernelWorkspace.
void step_columns(const ColumnParams& params, std::int64_t step,
                  double time_sec, std::span<const ColumnSite> columns,
                  std::span<ColumnResult> results);

/// One column through step_columns (tests and benches); `time_sec` since
/// t0.
ColumnResult step_column(const ColumnParams& params, std::uint64_t column_id,
                         std::int64_t step, double lat, double lon,
                         double time_sec, std::span<double> theta,
                         std::span<double> q);

/// cos(solar zenith angle); positive means daytime.
double cos_solar_zenith(double lat, double lon, double time_sec,
                        double declination_rad);

}  // namespace agcm::physics
