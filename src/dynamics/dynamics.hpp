// AGCM/Dynamics substitute: multi-layer shallow-water equations on the
// Arakawa C-grid with polar spectral filtering.
//
// The computational skeleton matches the paper's description of the UCLA
// AGCM Dynamics component:
//   * explicit finite differences on a 2-D decomposed lat-lon grid
//     (gravity-wave integration, upwind tracer transport),
//   * nearest-neighbour ghost-point exchanges before the FD sweeps,
//   * spectral filtering "at each time step before the finite-difference
//     procedures are called" poleward of the cutoff latitudes, which is
//     what allows a uniform timestep sized by the mid-latitude CFL limit.
//
// One C-grid spatial operator (continuity, momentum, tracer advection)
// serves both time integrators, forward-backward and leapfrog; each
// integrator only chooses which time level every term reads, and keeps its
// own halo exchanges, flop charges and commit.
#pragma once

#include <memory>

#include "comm/mesh2d.hpp"
#include "dynamics/advection.hpp"
#include "dynamics/state.hpp"
#include "filter/parallel.hpp"

namespace agcm::dynamics {

/// Explicit time-differencing scheme for the gravity-wave terms.
enum class TimeScheme {
  /// Forward-backward: h first, then momentum against the new h. Simple,
  /// no computational mode, stable to Courant 1.
  kForwardBackward,
  /// Leapfrog with a Robert-Asselin filter — the scheme family of the
  /// Arakawa-Lamb dycore. First step is forward-backward.
  kLeapfrog,
};

struct DynamicsConfig {
  double dt_sec = 450.0;  ///< uniform timestep (mid-latitude CFL)
  TimeScheme time_scheme = TimeScheme::kForwardBackward;
  double robert_asselin = 0.06;  ///< leapfrog computational-mode damping
  bool use_polar_filter = true;
  filter::FilterAlgorithm filter_algorithm =
      filter::FilterAlgorithm::kFftBalanced;
  /// Which Section 3.4 advection variant the virtual clock is charged
  /// for. Both give the same bits, so the host runs one engine either way.
  bool optimized_advection = false;
  /// Dimensionless per-step horizontal smoothing of momentum (a grid-space
  /// del-2 with coefficient kappa per direction; stable for kappa < 0.25).
  /// Expressed in grid units so the polar rows, where dx shrinks by two
  /// orders of magnitude, stay stable.
  double kappa_smooth = 0.02;
};

/// Virtual-seconds spent in the phases of the last step (this rank).
struct DynamicsTimings {
  double filter_sec = 0.0;
  double halo_sec = 0.0;
  double fd_sec = 0.0;  ///< finite differences incl. advection
  double total() const { return filter_sec + halo_sec + fd_sec; }
};

class Dynamics {
 public:
  /// mesh/decomp/grid must outlive the Dynamics object.
  Dynamics(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
           const grid::LatLonGrid& grid, const DynamicsConfig& config);

  /// One timestep of the configured scheme (filter -> halos -> FD).
  /// Collective.
  void step(State& state);

  const DynamicsTimings& last_timings() const { return timings_; }
  const DynamicsConfig& config() const { return config_; }
  const filter::FilterBank& filter_bank() const { return *bank_; }
  filter::PolarFilter* polar_filter() { return filter_.get(); }

  /// Global diagnostics (collective).
  double total_mass(const State& state) const;
  /// Total energy (kinetic + available potential), sum over layers:
  /// integral of h (u^2 + v^2)/2 + g h^2 / 2. Not exactly conserved by the
  /// discretisation, but it must stay bounded — the stability diagnostic.
  /// Refreshes the state's halos (hence non-const state).
  double total_energy(State& state) const;
  double total_tracer_mass(const State& state,
                           const grid::Array3D<double>& tracer) const;
  /// Max zonal Courant number |u| dt / dx over the globe.
  double max_zonal_courant(const State& state) const;
  /// Max gravity-wave Courant number sqrt(g h) dt / dx over the globe.
  double max_gravity_courant(const State& state) const;

  /// The variables the polar filter touches, in bank order
  /// (u, v, h strongly; theta, q weakly).
  static std::vector<filter::FilteredVariable> filtered_variables();

 private:
  void exchange_all_halos(State& state);
  void apply_filter(State& state);
  // The spatial operator. Every flux, Coriolis average and tracer flux
  // reads level n (`state`); the arguments pick the other levels.
  /// h_new_ = h_base - step * inv_area * (fe - fw + fn - fs). Charges the
  /// clock.
  void continuity(const State& state, const grid::Array3D<double>& h_base,
                  double step);
  /// x_new_ = x_base + step * (Coriolis + PGF(h_pgf))
  ///          + smooth_scale * del2(x_base), for x = u, v. The integrator
  ///          charges its flops.
  void momentum(const State& state, const grid::Array3D<double>& u_base,
                const grid::Array3D<double>& v_base,
                const grid::Array3D<double>& h_pgf, double step,
                double smooth_scale);
  /// Upwind tracers n -> n+1 against h_new_. Charges the clock.
  void advect(State& state);
  /// Charges `flops_per_point` of full-dycore arithmetic over my block.
  void charge_fd(double flops_per_point);

  // The integrators: operator calls, halo exchanges and the commit.
  void forward_backward(State& state);
  /// Needs the lagged level; step() primes it on the first step.
  void leapfrog(State& state);

  const comm::Mesh2D* mesh_;
  const grid::Decomp2D* decomp_;
  const grid::LatLonGrid* grid_;
  DynamicsConfig config_;
  grid::LocalBox box_;
  Metrics metrics_;
  /// Resolved through the process-wide bank cache (filter/bank_cache.hpp):
  /// every rank of every concurrent run at the same grid geometry shares
  /// one immutable bank; the handle keeps it (and its owned grid copy)
  /// alive past any cache clear.
  std::shared_ptr<const filter::FilterBank> bank_;
  std::unique_ptr<filter::PolarFilter> filter_;
  DynamicsTimings timings_;
  double points_;    ///< interior cells of my block
  double loop_eff_;  ///< the FD sweeps' loop efficiency at my zonal extent
  // Scratch fields reused across steps.
  grid::Array3D<double> h_new_, u_new_, v_new_;
  // Lagged (n-1) level, leapfrog only: allocated and primed on its first
  // step, empty under forward-backward.
  grid::Array3D<double> h_prev_, u_prev_, v_prev_;
  bool have_prev_ = false;
};

}  // namespace agcm::dynamics
