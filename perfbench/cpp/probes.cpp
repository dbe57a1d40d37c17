#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/mesh2d.hpp"
#include "dynamics/dynamics.hpp"
#include "filter/bank_cache.hpp"
#include "grid/halo.hpp"
#include "hostinfo.hpp"
#include "rebuild.hpp"

namespace perfbench {

namespace core = agcm::core;
namespace comm = agcm::comm;
namespace dynamics = agcm::dynamics;
namespace grid = agcm::grid;
namespace simnet = agcm::simnet;

namespace {

struct Measured {
  double loop_s = 0.0;  ///< rank 0, barrier to barrier
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Measured launch_loop(const core::ModelConfig& config, int ops) {
  simnet::Machine machine = make_machine(config);
  const double t0 = now_s();
  for (int q = 0; q < ops; ++q) machine.run(config.nranks(), [](auto&) {});
  return {now_s() - t0, 0, 0};
}

Measured probe_loop(Probe probe, const core::ModelConfig& config, int ops) {
  if (probe == Probe::kLaunch) return launch_loop(config, ops);
  simnet::Machine machine = make_machine(config);
  const dynamics::DynamicsConfig dyn_cfg = dynamics_config(config);
  Measured measured;

  const simnet::RunResult result =
      machine.run(config.nranks(), [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, config.mesh_rows, config.mesh_cols);
    const grid::LatLonGrid lat_lon(config.nlon, config.nlat, config.nlev);
    const grid::Decomp2D decomp(config.nlon, config.nlat, config.mesh_rows,
                                config.mesh_cols);
    const int rank = world.rank();
    const int p = world.size();

    dynamics::State state;
    std::shared_ptr<const agcm::filter::FilterBank> bank;
    std::unique_ptr<agcm::filter::PolarFilter> filter;
    if (probe == Probe::kFilter || probe == Probe::kHalo) {
      state = dynamics::State(decomp.box(mesh.coord()), config.nlev);
      dynamics::initialize_state(state, lat_lon, decomp.box(mesh.coord()),
                                 config.seed);
    }
    if (probe == Probe::kFilter) {
      bank = agcm::filter::shared_bank(lat_lon,
                                       dynamics::Dynamics::filtered_variables());
      filter = agcm::filter::make_filter(dyn_cfg.filter_algorithm, mesh,
                                         decomp, *bank);
    }
    // Bank order for the filter (u, v, h, theta, q); Dynamics' order for
    // the halo sweep (h, u, v, theta, q).
    grid::Array3D<double>* filtered[] = {&state.u, &state.v, &state.h,
                                         &state.theta, &state.q};
    grid::Array3D<double>* exchanged[] = {&state.h, &state.u, &state.v,
                                          &state.theta, &state.q};
    const std::vector<double> load{static_cast<double>(rank + 1)};
    const std::vector<int> one_each(static_cast<std::size_t>(p), 1);
    const std::vector<int> ints(static_cast<std::size_t>(p), rank);
    const double token = static_cast<double>(rank);
    [[maybe_unused]] double incoming = 0.0;

    world.barrier();
    const double t0 = now_s();
    for (int q = 0; q < ops; ++q) {
      switch (probe) {
        case Probe::kFilter:  // the model's filter component ends in a barrier
          filter->apply(filtered);
          world.barrier();
          break;
        case Probe::kHalo: grid::exchange_halos(mesh, exchanged); break;
        case Probe::kBarrier: world.barrier(); break;
        case Probe::kAllgatherv:
          world.allgatherv<double>(load, one_each);
          break;
        case Probe::kAlltoallv:
          world.alltoallv<int>(ints, one_each, one_each);
          break;
        case Probe::kRing:
          world.send_value((rank + 1) % p, 7, token);
          incoming = world.recv_value<double>((rank - 1 + p) % p, 7);
          break;
        case Probe::kLaunch: break;
      }
    }
    world.barrier();
    if (rank == 0) measured.loop_s = now_s() - t0;
  });
  measured.messages = result.total_messages;
  measured.bytes = result.total_bytes;
  return measured;
}

}  // namespace

ProbeResult run_probe(Probe probe, const core::ModelConfig& config,
                      double target_s) {
  const Measured base = probe_loop(probe, config, 0);
  // Calibrate on two operations, then size the timed loop.
  const Measured calib = probe_loop(probe, config, 2);
  const double per_op = std::max(calib.loop_s / 2.0, 1e-7);
  const int ops = static_cast<int>(
      std::clamp(std::ceil(target_s / per_op), 3.0, 20000.0));
  const Measured timed = probe_loop(probe, config, ops);

  ProbeResult out;
  out.ops = ops;
  out.host_s_per_op = timed.loop_s / ops;
  out.msgs_per_op = static_cast<double>(timed.messages - base.messages) / ops;
  out.bytes_per_op = static_cast<double>(timed.bytes - base.bytes) / ops;
  return out;
}

}  // namespace perfbench
