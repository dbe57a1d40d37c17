#include "dynamics/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "filter/bank_cache.hpp"
#include "grid/halo.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace agcm::dynamics {

namespace {

// The substitute dycore implements the shallow-water skeleton of the
// Arakawa-Lamb primitive-equation core. The real AGCM does substantially
// more arithmetic per point per step (vertical advection, hydrostatic and
// energy-conversion terms, implicit boundary-layer solves). This factor
// scales the *virtual cost* of the FD sweeps to the full dycore's
// arithmetic intensity; the executed computation stays the shallow-water
// one. Calibrated once against the paper's 1-node Paragon timing (Table 4);
// never tuned per experiment.
constexpr double kFullDycoreFactor = 4.5;

}  // namespace

std::vector<filter::FilteredVariable> Dynamics::filtered_variables() {
  return {
      {"u", filter::FilterKind::kStrong},
      {"v", filter::FilterKind::kStrong},
      {"h", filter::FilterKind::kStrong},
      {"theta", filter::FilterKind::kWeak},
      {"q", filter::FilterKind::kWeak},
  };
}

Dynamics::Dynamics(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                   const grid::LatLonGrid& grid, const DynamicsConfig& config)
    : mesh_(&mesh), decomp_(&decomp), grid_(&grid), config_(config),
      box_(decomp.box(mesh.coord())),
      metrics_(Metrics::build(grid, box_)),
      bank_(filter::shared_bank(grid, filtered_variables())),
      points_(static_cast<double>(box_.ni) * box_.nj * grid.nlev()),
      // Inner loops run over the local zonal extent; narrow blocks pay the
      // machine's pipeline-startup penalty.
      loop_eff_(mesh.world().context().clock().profile().loop_efficiency(
          box_.ni)),
      h_new_(box_.ni, box_.nj, grid.nlev(), 1),
      u_new_(box_.ni, box_.nj, grid.nlev(), 1),
      v_new_(box_.ni, box_.nj, grid.nlev(), 1) {
  check_config(config.dt_sec > 0.0, "dt must be positive");
  check_config(config.robert_asselin >= 0.0 && config.robert_asselin < 0.5,
               "Robert-Asselin coefficient must be in [0, 0.5)");
  if (config_.use_polar_filter) {
    filter_ = filter::make_filter(config_.filter_algorithm, mesh, decomp,
                                  *bank_);
  }
}

void Dynamics::exchange_all_halos(State& state) {
  // Batched sweep in the default per-field mode: bitwise the historical
  // five sequential exchanges, but packed through one cached strip program.
  grid::Array3D<double>* fields[] = {&state.h, &state.u, &state.v,
                                     &state.theta, &state.q};
  grid::exchange_halos(*mesh_, fields);
}

void Dynamics::apply_filter(State& state) {
  if (!filter_) return;
  grid::Array3D<double>* fields[] = {&state.u, &state.v, &state.h,
                                     &state.theta, &state.q};
  filter_->apply(fields);
}

void Dynamics::step(State& state) {
  simnet::RankContext& ctx = mesh_->world().context();
  auto& clock = ctx.clock();
  timings_ = DynamicsTimings{};

  // 1. Spectral filtering "at each time step before the finite-difference
  //    procedures are called".
  double t0 = clock.now();
  {
    AGCM_TRACE_SPAN("dynamics.filter", ctx);
    apply_filter(state);
    mesh_->world().barrier();  // component timing boundary (as in the paper)
  }
  timings_.filter_sec = clock.now() - t0;

  // 2. Ghost-point exchanges for the FD sweeps.
  t0 = clock.now();
  {
    AGCM_TRACE_SPAN("dynamics.halo", ctx);
    exchange_all_halos(state);
  }
  timings_.halo_sec = clock.now() - t0;

  // 3. Finite differences (+ upwind tracers).
  t0 = clock.now();
  {
    AGCM_TRACE_SPAN("dynamics.fd", ctx);
    if (config_.time_scheme != TimeScheme::kLeapfrog) {
      forward_backward(state);
    } else if (have_prev_) {
      leapfrog(state);
    } else {
      // The standard leapfrog start: allocate and prime the lagged level
      // with the pre-step state, then advance one forward-backward step.
      h_prev_ = state.h;
      u_prev_ = state.u;
      v_prev_ = state.v;
      forward_backward(state);
      have_prev_ = true;
    }
  }
  timings_.fd_sec = clock.now() - t0;

  state.time_sec += config_.dt_sec;
  ++state.step;
}

void Dynamics::continuity(const State& state,
                          const grid::Array3D<double>& h_base, double step) {
  // h_new = h_base - step/area * div(mass flux), flux form, fluxes at n.
  for (int k = 0; k < grid_->nlev(); ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      const double inv_area = metrics_.inv_area[static_cast<std::size_t>(j)];
      const double dxn = metrics_.dx_vface[static_cast<std::size_t>(j) + 1];
      const double dxs = metrics_.dx_vface[static_cast<std::size_t>(j)];
      const double dyf = metrics_.dy_face[static_cast<std::size_t>(j)];
      for (int i = 0; i < box_.ni; ++i) {
        const double fe = state.u(i, j, k) * 0.5 *
                          (state.h(i, j, k) + state.h(i + 1, j, k)) * dyf;
        const double fw = state.u(i - 1, j, k) * 0.5 *
                          (state.h(i - 1, j, k) + state.h(i, j, k)) * dyf;
        const double fn = state.v(i, j, k) * 0.5 *
                          (state.h(i, j, k) + state.h(i, j + 1, k)) * dxn;
        const double fs = state.v(i, j - 1, k) * 0.5 *
                          (state.h(i, j - 1, k) + state.h(i, j, k)) * dxs;
        h_new_(i, j, k) =
            h_base(i, j, k) - step * inv_area * (fe - fw + fn - fs);
      }
    }
  }
  charge_fd(16.0);
}

void Dynamics::momentum(const State& state,
                        const grid::Array3D<double>& u_base,
                        const grid::Array3D<double>& v_base,
                        const grid::Array3D<double>& h_pgf, double step,
                        double smooth_scale) {
  const double g = grid_->planet().gravity;
  const double omega = grid_->planet().omega;
  const double dy = grid_->dy_m();
  const double kappa = config_.kappa_smooth;
  const int global_nlat = grid_->nlat();
  for (int k = 0; k < grid_->nlev(); ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      const int gj = box_.j0 + j;
      const double f_u = 2.0 * omega * std::sin(grid_->lat_center(gj));
      const double dx_u = grid_->dx_m(gj);
      const bool south_edge = (gj == 0);
      const bool north_edge = (gj == global_nlat - 1);
      for (int i = 0; i < box_.ni; ++i) {
        // u on the east face of (i, j).
        const double vbar = 0.25 * (state.v(i, j, k) + state.v(i + 1, j, k) +
                                    state.v(i, j - 1, k) +
                                    state.v(i + 1, j - 1, k));
        const double pgf_x =
            -g * (h_pgf(i + 1, j, k) - h_pgf(i, j, k)) / dx_u;
        const double u_n = north_edge ? u_base(i, j, k) : u_base(i, j + 1, k);
        const double u_s = south_edge ? u_base(i, j, k) : u_base(i, j - 1, k);
        // Grid-space del-2 smoothing (see DynamicsConfig::kappa_smooth).
        const double smooth_u =
            kappa * (u_base(i + 1, j, k) + u_base(i - 1, j, k) -
                     2.0 * u_base(i, j, k)) +
            kappa * (u_n + u_s - 2.0 * u_base(i, j, k));
        u_new_(i, j, k) = u_base(i, j, k) + step * (f_u * vbar + pgf_x) +
                          smooth_scale * smooth_u;

        // v on the north face of (i, j); the polar faces stay at rest.
        if (gj + 1 >= global_nlat) {
          v_new_(i, j, k) = 0.0;
          continue;
        }
        const double f_v = 2.0 * omega * std::sin(grid_->lat_vface(gj + 1));
        const double ubar = 0.25 * (state.u(i, j, k) + state.u(i - 1, j, k) +
                                    state.u(i, j + 1, k) +
                                    state.u(i - 1, j + 1, k));
        const double pgf_y =
            -g * (h_pgf(i, j + 1, k) - h_pgf(i, j, k)) / dy;
        const double v_n = north_edge ? v_base(i, j, k) : v_base(i, j + 1, k);
        const double v_s = v_base(i, j - 1, k);
        const double smooth_v =
            kappa * (v_base(i + 1, j, k) + v_base(i - 1, j, k) -
                     2.0 * v_base(i, j, k)) +
            kappa * (v_n + v_s - 2.0 * v_base(i, j, k));
        v_new_(i, j, k) = v_base(i, j, k) + step * (-f_v * ubar + pgf_y) +
                          smooth_scale * smooth_v;
      }
    }
  }
}

void Dynamics::advect(State& state) {
  // The paper's "advection routine": a forward upwind step n -> n+1 with
  // level-n fluxes, whichever scheme integrates the gravity waves.
  grid::Array3D<double>* tracers[] = {&state.theta, &state.q};
  const KernelCost cost =
      config_.optimized_advection
          ? advect_tracers_optimized(*grid_, box_, metrics_, state.h, h_new_,
                                     state.u, state.v, tracers, config_.dt_sec)
          : advect_tracers_baseline(*grid_, box_, metrics_, state.h, h_new_,
                                    state.u, state.v, tracers, config_.dt_sec);
  mesh_->world().context().clock().compute(
      kFullDycoreFactor * cost.flops, cost.cache_efficiency * loop_eff_);
}

void Dynamics::charge_fd(double flops_per_point) {
  mesh_->world().context().clock().compute(
      kFullDycoreFactor * flops_per_point * points_, loop_eff_);
}

void Dynamics::forward_backward(State& state) {
  const double dt = config_.dt_sec;
  continuity(state, state.h, dt);
  // Backward step: the momentum PGF uses h_new, so it needs h_new ghosts.
  grid::exchange_halo(*mesh_, h_new_);
  momentum(state, state.u, state.v, h_new_, dt, 1.0);
  charge_fd(44.0);
  advect(state);

  const int nk = grid_->nlev();
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      for (int i = 0; i < box_.ni; ++i) {
        state.h(i, j, k) = h_new_(i, j, k);
        state.u(i, j, k) = u_new_(i, j, k);
        state.v(i, j, k) = v_new_(i, j, k);
      }
    }
  }
  mesh_->world().context().clock().memory_traffic(6.0 * points_ *
                                                  sizeof(double));
}

void Dynamics::leapfrog(State& state) {
  // x^{n+1} = x^{n-1} + 2 dt T(x^n) + 2 smoothing(x^{n-1}). The smoothing
  // is evaluated on the lagged level (explicit diffusion at level n is
  // unstable under leapfrog), so the lagged fields need current ghosts.
  grid::Array3D<double>* lagged[] = {&h_prev_, &u_prev_, &v_prev_};
  grid::exchange_halos(*mesh_, lagged);
  const double dt2 = 2.0 * config_.dt_sec;
  continuity(state, h_prev_, dt2);
  momentum(state, u_prev_, v_prev_, state.h, dt2, 2.0);
  charge_fd(48.0);
  advect(state);

  // Robert-Asselin filter + rotate levels.
  const int nk = grid_->nlev();
  const double alpha = config_.robert_asselin;
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      for (int i = 0; i < box_.ni; ++i) {
        const double hf = state.h(i, j, k) +
                          alpha * (h_new_(i, j, k) - 2.0 * state.h(i, j, k) +
                                   h_prev_(i, j, k));
        const double uf = state.u(i, j, k) +
                          alpha * (u_new_(i, j, k) - 2.0 * state.u(i, j, k) +
                                   u_prev_(i, j, k));
        const double vf = state.v(i, j, k) +
                          alpha * (v_new_(i, j, k) - 2.0 * state.v(i, j, k) +
                                   v_prev_(i, j, k));
        h_prev_(i, j, k) = hf;
        u_prev_(i, j, k) = uf;
        v_prev_(i, j, k) = vf;
        state.h(i, j, k) = h_new_(i, j, k);
        state.u(i, j, k) = u_new_(i, j, k);
        state.v(i, j, k) = v_new_(i, j, k);
      }
    }
  }
  auto& clock = mesh_->world().context().clock();
  clock.compute(15.0 * points_, loop_eff_);
  clock.memory_traffic(6.0 * points_ * sizeof(double));
}

double Dynamics::total_mass(const State& state) const {
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k)
    for (int j = 0; j < box_.nj; ++j) {
      const double area = grid_->cell_area_m2(box_.j0 + j);
      for (int i = 0; i < box_.ni; ++i) local += state.h(i, j, k) * area;
    }
  return mesh_->world().allreduce_sum(local);
}

double Dynamics::total_energy(State& state) const {
  grid::Array3D<double>* winds[] = {&state.u, &state.v};
  grid::exchange_halos(*mesh_, winds);
  const double g = grid_->planet().gravity;
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      const double area = grid_->cell_area_m2(box_.j0 + j);
      for (int i = 0; i < box_.ni; ++i) {
        // Face velocities averaged to the cell centre (needs the west and
        // south neighbours; the interior-only sum keeps this local because
        // u(i-1) and v(i,j-1) are ghosts already).
        const double uc = 0.5 * (state.u(i, j, k) + state.u(i - 1, j, k));
        const double vc = 0.5 * (state.v(i, j, k) + state.v(i, j - 1, k));
        const double h = state.h(i, j, k);
        local += area * (0.5 * h * (uc * uc + vc * vc) + 0.5 * g * h * h);
      }
    }
  }
  return mesh_->world().allreduce_sum(local);
}

double Dynamics::total_tracer_mass(const State& state,
                                   const grid::Array3D<double>& tracer) const {
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k)
    for (int j = 0; j < box_.nj; ++j) {
      const double area = grid_->cell_area_m2(box_.j0 + j);
      for (int i = 0; i < box_.ni; ++i)
        local += tracer(i, j, k) * state.h(i, j, k) * area;
    }
  return mesh_->world().allreduce_sum(local);
}

double Dynamics::max_zonal_courant(const State& state) const {
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k)
    for (int j = 0; j < box_.nj; ++j) {
      const double dx = grid_->dx_m(box_.j0 + j);
      for (int i = 0; i < box_.ni; ++i)
        local = std::max(local,
                         std::abs(state.u(i, j, k)) * config_.dt_sec / dx);
    }
  return mesh_->world().allreduce_max(local);
}

double Dynamics::max_gravity_courant(const State& state) const {
  const double g = grid_->planet().gravity;
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k)
    for (int j = 0; j < box_.nj; ++j) {
      const double dx = std::min(grid_->dx_m(box_.j0 + j), grid_->dy_m());
      for (int i = 0; i < box_.ni; ++i) {
        const double h = std::max(state.h(i, j, k), 0.0);
        local = std::max(local, std::sqrt(g * h) * config_.dt_sec / dx);
      }
    }
  return mesh_->world().allreduce_max(local);
}

}  // namespace agcm::dynamics
