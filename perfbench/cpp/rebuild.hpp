// The traced run: core::run_model's rank program rebuilt from the layers'
// public calls, with host timestamps taken from outside the layers.
//
// Rank 0 reads the steady clock right after each component barrier (the
// dynamics/physics boundary and the end of the physics phase), so a step's
// host time splits into the dynamics and physics phases without any span
// inside the simulator. Timestamps never touch a virtual clock: the
// rebuilt program's virtual results are bitwise run_model's, and the
// benchmark checks that on every traced run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "dynamics/dynamics.hpp"
#include "physics/physics.hpp"

namespace perfbench {

/// The per-component configurations run_model derives from a ModelConfig.
agcm::dynamics::DynamicsConfig dynamics_config(
    const agcm::core::ModelConfig& config);
agcm::physics::PhysicsConfig physics_config(
    const agcm::core::ModelConfig& config);

/// A Machine configured the way run_model configures its own.
agcm::simnet::Machine make_machine(const agcm::core::ModelConfig& config);

/// Host seconds rank 0 measured inside one rebuilt run.
struct HostSplit {
  double setup_s = 0.0;            ///< program entry -> State initialised
  std::vector<double> dynamics_s;  ///< per step, warm-up steps first
  std::vector<double> physics_s;   ///< per step, warm-up steps first
};

struct Rebuild {
  agcm::core::RunReport report;  ///< aggregated exactly as run_model does
  HostSplit host;
  double wall_s = 0.0;  ///< the whole Machine::run, launch to teardown
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_reuses = 0;
};

/// Runs the rebuilt program. With steps == 0 the report carries only the
/// traffic totals; run with no warm-up either, that is the traffic of
/// set-up and diagnostics, the base per-step message counts are taken
/// against.
Rebuild run_rebuild(const agcm::core::ModelConfig& config, int steps,
                    int warmup_steps);

struct SetupTiming {
  double total_s = 0.0;     ///< Machine::run launch until every rank built
  double dynamics_s = 0.0;  ///< split runs only: the Dynamics constructors
  double physics_s = 0.0;   ///< split runs only: the Physics constructors
};

/// Launches the machine, builds Dynamics, Physics and State on every rank,
/// and returns. Callers clear the shared caches first for a cold set-up.
/// `split` adds barriers around the constructors so rank 0 can time each.
SetupTiming run_setup(const agcm::core::ModelConfig& config, bool split);

}  // namespace perfbench
