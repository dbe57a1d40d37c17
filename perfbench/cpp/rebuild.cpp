#include "rebuild.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "comm/mesh2d.hpp"
#include "hostinfo.hpp"
#include "trace/histogram.hpp"

namespace perfbench {

namespace core = agcm::core;
namespace comm = agcm::comm;
namespace dynamics = agcm::dynamics;
namespace physics = agcm::physics;
namespace grid = agcm::grid;
namespace simnet = agcm::simnet;

dynamics::DynamicsConfig dynamics_config(const core::ModelConfig& config) {
  dynamics::DynamicsConfig dyn;
  dyn.dt_sec = config.dt_sec;
  dyn.time_scheme = config.time_scheme;
  dyn.use_polar_filter = config.use_polar_filter;
  dyn.filter_algorithm = config.filter_algorithm;
  dyn.optimized_advection = config.optimized_advection;
  return dyn;
}

physics::PhysicsConfig physics_config(const core::ModelConfig& config) {
  physics::PhysicsConfig phys;
  phys.column.nlev = config.nlev;
  phys.column.dt_sec = config.dt_sec;
  phys.column.seed = config.seed;
  phys.column.solar_declination_rad =
      physics::regime_declination_rad(config.physics_regime);
  phys.load_balance = config.physics_load_balance;
  phys.lb_scheme = config.lb_scheme;
  phys.lb_options = config.lb_options;
  return phys;
}

simnet::Machine make_machine(const core::ModelConfig& config) {
  simnet::Machine machine(config.machine);
  machine.set_recv_timeout_ms(config.recv_timeout_ms);
  machine.set_backend(config.simnet_backend);
  machine.set_workers(config.simnet_workers);
  return machine;
}

namespace {

/// What one rank accumulates, as in run_model.
struct RankOutcome {
  core::ComponentTimes accumulated;
  std::vector<core::ComponentTimes> step_samples;
  double physics_flops_last = 0.0;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  double mass_start = 0.0;
  double mass_end = 0.0;
  double max_zonal_courant = 0.0;
  double max_gravity_courant = 0.0;
  double filter_setup_sec = 0.0;
};

/// run_model's report aggregation: max over ranks of per-step averages,
/// histogram percentiles over every (rank, timed step) sample.
core::RunReport aggregate(const core::ModelConfig& config, int steps,
                          const std::vector<RankOutcome>& outcomes,
                          const simnet::RunResult& run_result) {
  core::RunReport report;
  report.steps = steps;
  report.steps_per_day = config.steps_per_day();
  for (const RankOutcome& out : outcomes) {
    const double inv = 1.0 / steps;
    report.per_step.filter =
        std::max(report.per_step.filter, out.accumulated.filter * inv);
    report.per_step.halo =
        std::max(report.per_step.halo, out.accumulated.halo * inv);
    report.per_step.fd = std::max(report.per_step.fd, out.accumulated.fd * inv);
    report.per_step.physics_compute =
        std::max(report.per_step.physics_compute,
                 out.accumulated.physics_compute * inv);
    report.per_step.physics_balance =
        std::max(report.per_step.physics_balance,
                 out.accumulated.physics_balance * inv);
    report.rank_physics_flops.push_back(out.physics_flops_last);
    report.filter_setup_sec =
        std::max(report.filter_setup_sec, out.filter_setup_sec);
  }
  agcm::trace::LogHistogram filter_h, halo_h, fd_h, compute_h, balance_h;
  for (const RankOutcome& out : outcomes) {
    for (const core::ComponentTimes& sample : out.step_samples) {
      filter_h.add(sample.filter);
      halo_h.add(sample.halo);
      fd_h.add(sample.fd);
      compute_h.add(sample.physics_compute);
      balance_h.add(sample.physics_balance);
    }
  }
  const auto summarize = [](const agcm::trace::LogHistogram& h) {
    return core::PhasePercentiles{h.percentile(50.0), h.percentile(95.0),
                                  h.percentile(99.0)};
  };
  report.percentiles.filter = summarize(filter_h);
  report.percentiles.halo = summarize(halo_h);
  report.percentiles.fd = summarize(fd_h);
  report.percentiles.physics_compute = summarize(compute_h);
  report.percentiles.physics_balance = summarize(balance_h);

  report.physics_imbalance_before = outcomes.front().imbalance_before;
  report.physics_imbalance_after = outcomes.front().imbalance_after;
  const double m0 = outcomes.front().mass_start;
  const double m1 = outcomes.front().mass_end;
  report.mass_drift_rel = m0 != 0.0 ? std::abs(m1 - m0) / std::abs(m0) : 0.0;
  report.max_zonal_courant = outcomes.front().max_zonal_courant;
  report.max_gravity_courant = outcomes.front().max_gravity_courant;
  report.total_messages = run_result.total_messages;
  report.total_bytes = run_result.total_bytes;
  report.rank_breakdowns = run_result.breakdowns;
  return report;
}

}  // namespace

Rebuild run_rebuild(const core::ModelConfig& config, int steps,
                    int warmup_steps) {
  simnet::Machine machine = make_machine(config);
  const int nranks = config.nranks();
  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(nranks));
  Rebuild rebuild;
  HostSplit& host = rebuild.host;
  std::atomic<int> finished{0};

  const dynamics::DynamicsConfig dyn_cfg = dynamics_config(config);
  const physics::PhysicsConfig phys_cfg = physics_config(config);

  const double t_launch = now_s();
  const simnet::RunResult run_result =
      machine.run(nranks, [&](simnet::RankContext& ctx) {
    const double t_entry = now_s();
    comm::Communicator world(ctx);
    const bool timer = world.rank() == 0;
    comm::Mesh2D mesh(world, config.mesh_rows, config.mesh_cols);
    const grid::LatLonGrid grid(config.nlon, config.nlat, config.nlev);
    const grid::Decomp2D decomp(config.nlon, config.nlat, config.mesh_rows,
                                config.mesh_cols);

    const double setup_t0 = world.now();
    dynamics::Dynamics dyn(mesh, decomp, grid, dyn_cfg);
    const double setup_cost = world.now() - setup_t0;
    physics::Physics phys(mesh, decomp, grid, phys_cfg);
    dynamics::State state(decomp.box(mesh.coord()), config.nlev);
    dynamics::initialize_state(state, grid, decomp.box(mesh.coord()),
                               config.seed);

    RankOutcome& out = outcomes[static_cast<std::size_t>(world.rank())];
    out.filter_setup_sec = setup_cost;
    out.mass_start = dyn.total_mass(state);
    double t_mark = now_s();
    if (timer) host.setup_s = t_mark - t_entry;

    physics::PhysicsStepStats phys_stats;
    for (int s = 0; s < warmup_steps + steps; ++s) {
      const bool timed = s >= warmup_steps;
      dyn.step(state);
      world.barrier();  // dynamics/physics component boundary
      if (timer) {
        const double t = now_s();
        host.dynamics_s.push_back(t - t_mark);
        t_mark = t;
      }
      const auto dyn_t = dyn.last_timings();

      double phys_compute = 0.0;
      double phys_balance = 0.0;
      if (config.physics_enabled) {
        phys_stats = phys.step(state);
        world.barrier();  // end of the physics component
        phys_compute = phys.last_timings().compute_sec;
        phys_balance = phys.last_timings().balance_sec;
      }
      if (timer) {
        const double t = now_s();
        host.physics_s.push_back(t - t_mark);
        t_mark = t;
      }

      if (timed) {
        out.accumulated.filter += dyn_t.filter_sec;
        out.accumulated.halo += dyn_t.halo_sec;
        out.accumulated.fd += dyn_t.fd_sec;
        out.accumulated.physics_compute += phys_compute;
        out.accumulated.physics_balance += phys_balance;
        out.step_samples.push_back({dyn_t.filter_sec, dyn_t.halo_sec,
                                    dyn_t.fd_sec, phys_compute,
                                    phys_balance});
        out.physics_flops_last = phys.last_timings().local_flops;
        out.imbalance_before = phys_stats.imbalance_before;
        out.imbalance_after = phys_stats.imbalance_after;
      }
    }

    out.mass_end = dyn.total_mass(state);
    out.max_zonal_courant = dyn.max_zonal_courant(state);
    out.max_gravity_courant = dyn.max_gravity_courant(state);

    // Every send (and so every pool acquire) has happened once the last
    // rank gets here.
    if (finished.fetch_add(1) + 1 == nranks) {
      const auto& pool = ctx.network().pool();
      rebuild.pool_reuses = pool.reuses();
      rebuild.pool_acquires = pool.reuses() + pool.misses();
    }
  });
  rebuild.wall_s = now_s() - t_launch;

  if (steps == 0) {
    rebuild.report.total_messages = run_result.total_messages;
    rebuild.report.total_bytes = run_result.total_bytes;
  } else {
    rebuild.report = aggregate(config, steps, outcomes, run_result);
  }
  return rebuild;
}

SetupTiming run_setup(const core::ModelConfig& config, bool split) {
  simnet::Machine machine = make_machine(config);
  const dynamics::DynamicsConfig dyn_cfg = dynamics_config(config);
  const physics::PhysicsConfig phys_cfg = physics_config(config);
  SetupTiming timing;

  const double t_launch = now_s();
  machine.run(config.nranks(), [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    const bool timer = split && world.rank() == 0;
    comm::Mesh2D mesh(world, config.mesh_rows, config.mesh_cols);
    const grid::LatLonGrid grid(config.nlon, config.nlat, config.nlev);
    const grid::Decomp2D decomp(config.nlon, config.nlat, config.mesh_rows,
                                config.mesh_cols);
    if (split) world.barrier();
    const double t0 = now_s();
    dynamics::Dynamics dyn(mesh, decomp, grid, dyn_cfg);
    if (split) world.barrier();
    const double t1 = now_s();
    physics::Physics phys(mesh, decomp, grid, phys_cfg);
    if (split) world.barrier();
    const double t2 = now_s();
    dynamics::State state(decomp.box(mesh.coord()), config.nlev);
    dynamics::initialize_state(state, grid, decomp.box(mesh.coord()),
                               config.seed);
    if (timer) {
      timing.dynamics_s = t1 - t0;
      timing.physics_s = t2 - t1;
    }
  });
  timing.total_s = now_s() - t_launch;
  return timing;
}

}  // namespace perfbench
