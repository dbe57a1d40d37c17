// Scalar pieces of the physics column engine (src/physics/column.cpp): the
// longwave emissivity table and the cumulus-convection adjustment loop.
// The longwave exchange and the implicit-diffusion solve run across
// columns in the SIMD dispatch table (kernels/simd/dispatch.hpp,
// longwave_lanes and thomas_lanes).
//
// Both are BITWISE IDENTICAL to the seed loops (preserved as
// physics::step_column_seed_ref):
//   * the longwave emissivity 0.015 / (1 + |k1 - k2|) is precomputed once
//     per distance into a table (the identical expression, so identical
//     bits), so the exchange kernels need no division, abs() or k1 == k2
//     branch,
//   * the convection sweep keeps the seed's update sequence, with
//     `__restrict`-qualified pointer walks (docs/kernels.md).
#pragma once

namespace agcm::kernels {

/// Fills emis[d] = 0.015 / (1.0 + d) for d = 0..nlev-1 (d indexes the
/// layer distance |k1 - k2|; entry 0 is never read). Each entry is the
/// seed's per-pair expression evaluated once.
void fill_longwave_emissivity(double* emis, int nlev);

/// Process-wide shared emissivity table for `nlev` layers: the values of
/// fill_longwave_emissivity (same fill, hence identical bits) published
/// once and reused by every column of every concurrent Machine, instead of
/// being refilled per column per step. The hot path is a single acquire
/// load from a fixed table-of-pointers (no lock after first publication);
/// pointers stay valid for the process lifetime — a cache clear resets the
/// slots but never frees published tables, so readers need no fences
/// beyond the acquire. Returns nullptr (caller falls back to its own
/// fill_longwave_emissivity scratch) when nlev is out of table range or
/// util::SharedCaches is disabled.
const double* shared_longwave_emissivity(int nlev);

/// Resets the shared emissivity slots (published tables intentionally kept
/// alive — see shared_longwave_emissivity). Wired into
/// util::SharedCaches::clear_all().
void clear_emissivity_cache();

/// The cumulus-convection adjustment: iteratively mixes unstable adjacent
/// layers, condensing moisture into latent heat and precipitation.
/// Returns the iteration count (>= 1); adds condensed moisture to
/// `precipitation`. Identical update sequence to the seed loop.
int convection_sweep(double* theta, double* q, int nlev, double threshold,
                     int max_iters, double& precipitation);

}  // namespace agcm::kernels
