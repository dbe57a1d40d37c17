#include "dynamics/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "filter/bank_cache.hpp"
#include "grid/halo.hpp"
#include "kernels/dycore_kernels.hpp"
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
  const grid::ConstFieldView u = state.u.view();
  const grid::ConstFieldView v = state.v.view();
  const grid::ConstFieldView h = state.h.view();
  const grid::ConstFieldView hb = h_base.view();
  const grid::FieldView out = h_new_.view();
  for (int k = 0; k < grid_->nlev(); ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      const auto r = static_cast<std::size_t>(j);
      kernels::continuity_row(
          box_.ni, metrics_.dy_face[r], metrics_.dx_vface[r + 1],
          metrics_.dx_vface[r], step * metrics_.inv_area[r], u.row(j, k),
          v.row(j, k), v.row(j - 1, k), h.row(j, k), h.row(j + 1, k),
          h.row(j - 1, k), hb.row(j, k), out.row(j, k));
    }
  }
  charge_fd(16.0);
}

void Dynamics::momentum(const State& state,
                        const grid::Array3D<double>& u_base,
                        const grid::Array3D<double>& v_base,
                        const grid::Array3D<double>& h_pgf, double step,
                        double smooth_scale) {
  const kernels::MomentumCoeffs coeffs{grid_->planet().gravity,
                                       config_.kappa_smooth, step,
                                       smooth_scale};
  const double dy = grid_->dy_m();
  const int global_nlat = grid_->nlat();
  const grid::ConstFieldView u = state.u.view();
  const grid::ConstFieldView v = state.v.view();
  const grid::ConstFieldView ub = u_base.view();
  const grid::ConstFieldView vb = v_base.view();
  const grid::ConstFieldView hp = h_pgf.view();
  const grid::FieldView u_out = u_new_.view();
  const grid::FieldView v_out = v_new_.view();
  for (int k = 0; k < grid_->nlev(); ++k) {
    for (int j = 0; j < box_.nj; ++j) {
      const auto r = static_cast<std::size_t>(j);
      const int gj = box_.j0 + j;
      const bool north_edge = (gj == global_nlat - 1);
      // u on the east faces. The del-2 smoothing's meridional neighbours
      // fall back to the row itself at the global edges.
      const double* ub_row = ub.row(j, k);
      kernels::momentum_u_row(
          box_.ni, coeffs, metrics_.coriolis_u[r], metrics_.dx_u[r],
          v.row(j, k), v.row(j - 1, k), hp.row(j, k), ub_row,
          north_edge ? ub_row : ub.row(j + 1, k),
          gj == 0 ? ub_row : ub.row(j - 1, k), u_out.row(j, k));

      // v on the north faces; the polar faces stay at rest.
      if (north_edge) {
        std::fill_n(v_out.row(j, k), box_.ni, 0.0);
        continue;
      }
      kernels::momentum_v_row(box_.ni, coeffs, metrics_.coriolis_v[r], dy,
                              u.row(j, k), u.row(j + 1, k), hp.row(j, k),
                              hp.row(j + 1, k), vb.row(j, k),
                              vb.row(j + 1, k), vb.row(j - 1, k),
                              v_out.row(j, k));
    }
  }
}

void Dynamics::advect(State& state) {
  // The paper's "advection routine": a forward upwind step n -> n+1 with
  // level-n fluxes, whichever scheme integrates the gravity waves. Both of
  // the paper's variants give the same bits, so the host always runs the
  // engine; the flag picks which variant the virtual clock is charged for.
  grid::Array3D<double>* tracers[] = {&state.theta, &state.q};
  advect_tracers_optimized(*grid_, box_, metrics_, state.h, h_new_, state.u,
                           state.v, tracers, config_.dt_sec);
  const KernelCost cost = advection_cost(config_.optimized_advection, box_,
                                         grid_->nlev(), std::size(tracers));
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

  // Commit the interiors row by row (a bitwise copy).
  const std::size_t row_bytes =
      static_cast<std::size_t>(box_.ni) * sizeof(double);
  for (auto [dst, src] : {std::pair{&state.h, &h_new_},
                          std::pair{&state.u, &u_new_},
                          std::pair{&state.v, &v_new_}}) {
    const grid::FieldView to = dst->view();
    const grid::FieldView from = src->view();
    for (int k = 0; k < grid_->nlev(); ++k)
      for (int j = 0; j < box_.nj; ++j)
        std::memcpy(to.row(j, k), from.row(j, k), row_bytes);
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

// Both Courant numbers are monotone in one per-point quantity (|u|, and
// max(h, 0)), so each row's largest value gives the row's largest Courant
// number: one division (and one sqrt) per row instead of per point, with
// the same bits. std::max returns its first argument when the second is
// NaN, so a NaN point is skipped here exactly as in the per-point form
// (tests/test_dynamics.cpp, CourantDiagnosticsMatchThePerPointLoop).
double Dynamics::max_zonal_courant(const State& state) const {
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k)
    for (int j = 0; j < box_.nj; ++j) {
      const double dx = grid_->dx_m(box_.j0 + j);
      double u_max = 0.0;
      for (int i = 0; i < box_.ni; ++i)
        u_max = std::max(u_max, std::abs(state.u(i, j, k)));
      local = std::max(local, u_max * config_.dt_sec / dx);
    }
  return mesh_->world().allreduce_max(local);
}

double Dynamics::max_gravity_courant(const State& state) const {
  const double g = grid_->planet().gravity;
  double local = 0.0;
  for (int k = 0; k < grid_->nlev(); ++k)
    for (int j = 0; j < box_.nj; ++j) {
      const double dx = std::min(grid_->dx_m(box_.j0 + j), grid_->dy_m());
      double h_max = 0.0;  // also drops negative h, as max(h, 0) did
      for (int i = 0; i < box_.ni; ++i)
        h_max = std::max(h_max, state.h(i, j, k));
      local = std::max(local, std::sqrt(g * h_max) * config_.dt_sec / dx);
    }
  return mesh_->world().allreduce_max(local);
}

}  // namespace agcm::dynamics
