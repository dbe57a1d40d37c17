// AGCM/Physics driver: runs the column emulator over the local block, with
// optional load balancing of columns across all nodes (lb::balance).
//
// Load estimation follows the paper: "a timing on the previous pass of the
// physics component was performed ... and the result was used as an
// estimate for the current physics computing load" — here at per-column
// granularity (the per-column virtual cost of the previous pass), which is
// what lets Schemes 2/3 assign integer weights to the pieces they move.
#pragma once

#include "comm/mesh2d.hpp"
#include "dynamics/state.hpp"
#include "loadbalance/planner.hpp"
#include "physics/column.hpp"
#include "util/aligned.hpp"

namespace agcm::physics {

struct PhysicsConfig {
  ColumnParams column;
  bool load_balance = false;
  /// Which of the paper's schemes runs when load_balance is on. Pairwise
  /// (Scheme 3, the adopted one) preserves the historical meaning of the
  /// plain load_balance flag; kNone here disables balancing outright.
  lb::Scheme lb_scheme = lb::Scheme::kPairwise;
  lb::PairwiseOptions lb_options{};  ///< Scheme 3 only; two iterations
};

/// Virtual-time accounting for the last physics pass (this rank).
struct PhysicsTimings {
  double balance_sec = 0.0;  ///< load estimation + migration + return
  double compute_sec = 0.0;  ///< column computation charged locally
  double local_flops = 0.0;  ///< flops this rank actually executed
  double total() const { return balance_sec + compute_sec; }
};

struct PhysicsStepStats {
  double imbalance_before = 0.0;  ///< estimated, from the previous pass
  double imbalance_after = 0.0;   ///< estimated, after migration
  int lb_iterations = 0;
};

class Physics {
 public:
  Physics(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
          const grid::LatLonGrid& grid, const PhysicsConfig& config);

  /// Applies one physics step to theta/q. Collective when load balancing.
  PhysicsStepStats step(dynamics::State& state);

  const PhysicsTimings& last_timings() const { return timings_; }
  const PhysicsConfig& config() const { return config_; }

  /// Previous-pass per-column cost estimates (flops), local block layout
  /// (i fastest). Exposed for the Tables 1-3 benchmark.
  std::span<const double> column_cost_estimates() const { return prev_cost_; }

 private:
  /// Runs every column of `items` in place on its theta/q profiles in
  /// `payloads` through physics::step_columns, a fixed chunk of columns per
  /// call, stores each column's measured flops in `flops` and charges their
  /// sum, in column order, as this rank's compute (both paths' one loop).
  void run_columns(std::span<const lb::Item> items, std::span<double> payloads,
                   std::span<double> flops, const dynamics::State& state);

  const comm::Mesh2D* mesh_;
  const grid::LatLonGrid* grid_;
  PhysicsConfig config_;
  grid::LocalBox box_;
  std::vector<double> prev_cost_;  ///< per local column, flops
  /// Per-step gather scratch (items + packed theta/q payloads), sized once
  /// in the constructor (tests/test_kernel_alloc.cpp). The payloads, the
  /// largest per-rank block of physics, come from the recycling aligned
  /// allocator like the fields (util/aligned.hpp).
  std::vector<lb::Item> items_;
  std::vector<double, util::AlignedAllocator<double, 64>> payloads_;
  /// Growth-only: run_columns' engine arguments for one chunk of columns,
  /// and the balanced path's held set, flops, results and returned results.
  std::vector<ColumnSite> sites_;
  std::vector<ColumnResult> column_results_;
  lb::BalanceResult held_;
  std::vector<double> held_flops_;
  std::vector<double> held_results_;
  std::vector<double> mine_;
  PhysicsTimings timings_;
};

}  // namespace agcm::physics
