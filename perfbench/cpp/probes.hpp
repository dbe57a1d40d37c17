// Isolated probe loops at a workload's geometry and rank count: one layer
// operation repeated between two barriers, timed by rank 0 from outside.
//
// Message and byte counts per operation are exact: each probe runs once
// with zero operations and once with `ops`, and the difference of the two
// runs' network totals is divided by `ops`.
#pragma once

#include "core/model.hpp"

namespace perfbench {

enum class Probe {
  kFilter,      ///< PolarFilter::apply on the five fields, then a barrier
  kHalo,        ///< grid::exchange_halos of the five prognostic fields
  kBarrier,     ///< Communicator::barrier on the world
  kAllgatherv,  ///< one double per rank, as the LB load gather
  kAlltoallv,   ///< one int per rank pair, as the LB count exchange
  kRing,        ///< one 8-byte message to the next rank, from the previous
  kLaunch,      ///< Machine::run of an empty program
};

struct ProbeResult {
  double host_s_per_op = 0.0;
  double msgs_per_op = 0.0;
  double bytes_per_op = 0.0;
  int ops = 0;
};

/// Runs `probe` at `config`'s geometry, sizing the loop to take about
/// `target_s` host seconds.
ProbeResult run_probe(Probe probe, const agcm::core::ModelConfig& config,
                      double target_s);

}  // namespace perfbench
