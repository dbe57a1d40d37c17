// Workload inputs: one `.cfg` per workload in perfbench/workloads, with the
// model seed stamped in by the benchmark (the simulator only ever sees the
// generated configuration).
#pragma once

#include <cstdint>
#include <string>

#include "campaign/matrix.hpp"
#include "core/config_load.hpp"

namespace perfbench {

/// How the benchmark serves the campaign workload. One cell at a time: with
/// four concurrent cells on a 4-vCPU shared host the campaign's wall time
/// spread ~28% (IQR over median) from run to run, with one ~9%.
inline constexpr int kCampaignConcurrency = 1;
inline constexpr int kCampaignWorkersPerMachine = 1;

struct Workload {
  std::string name;
  /// The model run itself; for the campaign, its first cell (the one the
  /// traced breakdown rebuilds).
  agcm::core::RunSpec spec;
  bool is_campaign = false;
  agcm::campaign::Campaign campaign;  ///< campaign workloads only
};

/// Loads `<dir>/<name>.cfg` with `seed = model_seed` for every run.
Workload load_workload(const std::string& dir, const std::string& name,
                       std::uint64_t model_seed);

/// The same model with physics load balancing toggled: off when it was on,
/// Scheme 3 (pairwise) when it was off.
agcm::core::ModelConfig lb_twin(const agcm::core::ModelConfig& config);

/// True when the model actually balances physics load.
bool lb_active(const agcm::core::ModelConfig& config);

}  // namespace perfbench
