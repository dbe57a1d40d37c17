#include "physics/physics.hpp"

#include <algorithm>

#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace agcm::physics {

/// Columns per step_columns call: a multiple of every tier's column_lanes
/// (8, 16 and 32), so a chunk holds whole batches. It bounds the engine's
/// argument arrays whatever the number of columns a rank runs.
constexpr std::size_t kColumnChunk = 128;

Physics::Physics(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                 const grid::LatLonGrid& grid, const PhysicsConfig& config)
    : mesh_(&mesh), grid_(&grid), config_(config),
      box_(decomp.box(mesh.coord())) {
  check_config(config.column.nlev == grid.nlev(),
               "physics nlev must match the grid");
  // First pass: no history yet; assume uniform cost.
  const auto ncols =
      static_cast<std::size_t>(box_.ni) * static_cast<std::size_t>(box_.nj);
  prev_cost_.assign(ncols, 1.0);
  // Gather scratch sized once here: the steady-state step reuses it.
  items_.resize(ncols);
  payloads_.resize(ncols * 2 * static_cast<std::size_t>(grid.nlev()));
}

void Physics::run_columns(std::span<const lb::Item> items,
                          std::span<double> payloads, std::span<double> flops,
                          const dynamics::State& state) {
  auto& clock = mesh_->world().context().clock();
  AGCM_TRACE_SPAN("physics.columns", mesh_->world().context());
  const double t0 = clock.now();
  const auto nlev = static_cast<std::size_t>(grid_->nlev());
  const auto nlon = static_cast<std::uint64_t>(grid_->nlon());
  // Growth-only, to at most one chunk: a full chunk would leave 74 of 128
  // entries unused on each of the flagship's 240 ranks of 54 columns.
  const std::size_t chunk = std::min(items.size(), kColumnChunk);
  if (sites_.size() < chunk) {
    sites_.resize(chunk);
    column_results_.resize(chunk);
  }
  double local_flops = 0.0;
  for (std::size_t c0 = 0; c0 < items.size(); c0 += kColumnChunk) {
    const std::size_t nc = std::min(kColumnChunk, items.size() - c0);
    for (std::size_t c = 0; c < nc; ++c) {
      const std::uint64_t id = items[c0 + c].id;
      const auto gi = static_cast<int>(id % nlon);
      const auto gj = static_cast<int>(id / nlon);
      double* p = payloads.data() + (c0 + c) * 2 * nlev;
      sites_[c] = {id, grid_->lat_center(gj), grid_->lon_center(gi), p,
                   p + nlev};
    }
    step_columns(config_.column, state.step, state.time_sec,
                 std::span(sites_).first(nc),
                 std::span(column_results_).first(nc));
    for (std::size_t c = 0; c < nc; ++c) {
      flops[c0 + c] = column_results_[c].flops;
      local_flops += flops[c0 + c];
    }
  }
  clock.compute(local_flops);
  timings_.local_flops = local_flops;
  timings_.compute_sec = clock.now() - t0;
}

PhysicsStepStats Physics::step(dynamics::State& state) {
  auto& clock = mesh_->world().context().clock();
  timings_ = PhysicsTimings{};
  const int nlev = grid_->nlev();
  const auto ncols = static_cast<std::size_t>(box_.ni) *
                     static_cast<std::size_t>(box_.nj);
  const auto per_item = static_cast<std::size_t>(2 * nlev);  // theta, q
  const std::size_t per_result = per_item + 1;  // profiles, measured flops
  const auto nlon = static_cast<std::uint64_t>(grid_->nlon());
  // Calls fn(c, i, j) for every local column c, i fastest.
  const auto each_column = [&](auto&& fn) {
    std::size_t c = 0;
    for (int j = 0; j < box_.nj; ++j)
      for (int i = 0; i < box_.ni; ++i) fn(c++, i, j);
  };

  // Gather column payloads and load estimates (previous-pass costs) into
  // the member scratch (sized in the constructor — no per-step allocation).
  AGCM_ASSERT(items_.size() == ncols && payloads_.size() == ncols * per_item);
  each_column([&](std::size_t c, int i, int j) {
    items_[c] = {static_cast<std::uint64_t>(box_.j0 + j) * nlon +
                     static_cast<std::uint64_t>(box_.i0 + i),
                 prev_cost_[c]};
    double* p = payloads_.data() + c * per_item;
    for (int k = 0; k < nlev; ++k) {
      p[k] = state.theta(i, j, k);
      p[nlev + k] = state.q(i, j, k);
    }
  });
  clock.memory_traffic(static_cast<double>(payloads_.size()) *
                       sizeof(double));
  // Writes each local column's profiles, `stride` doubles apart in `from`,
  // back into the state.
  const auto write_back = [&](std::span<const double> from,
                              std::size_t stride) {
    each_column([&](std::size_t c, int i, int j) {
      const double* r = from.data() + c * stride;
      for (int k = 0; k < nlev; ++k) {
        state.theta(i, j, k) = r[k];
        state.q(i, j, k) = r[nlev + k];
      }
    });
  };

  if (!config_.load_balance || config_.lb_scheme == lb::Scheme::kNone) {
    // Straight local pass: the measured costs are the next estimates.
    run_columns(items_, payloads_, prev_cost_, state);
    write_back(payloads_, per_item);
    return {};
  }

  // --- load-balanced pass (configured scheme) ----------------------------
  // Every scheme fills the same held set, and return_to_owners routes by
  // held origins, so everything after lb::balance is scheme-agnostic.
  const double t_bal0 = clock.now();
  {
    AGCM_TRACE_SPAN("physics.balance", mesh_->world().context());
    lb::balance(mesh_->world(), config_.lb_scheme, items_, payloads_,
                static_cast<int>(per_item), held_, config_.lb_options);
  }
  timings_.balance_sec = clock.now() - t_bal0;

  // Process the held columns; results carry the updated profiles plus the
  // measured cost (which becomes the owner's next estimate).
  const std::size_t held = held_.held_items.size();
  held_flops_.resize(held);
  run_columns(held_.held_items, held_.held_payloads, held_flops_, state);
  held_results_.resize(held * per_result);
  for (std::size_t c = 0; c < held; ++c) {
    double* r = held_results_.data() + c * per_result;
    std::copy_n(held_.held_payloads.data() + c * per_item, per_item, r);
    r[per_item] = held_flops_[c];
  }

  // Route results home and write them back.
  const double t_ret0 = clock.now();
  mine_.resize(ncols * per_result);
  {
    AGCM_TRACE_SPAN("physics.balance", mesh_->world().context());
    lb::return_to_owners(mesh_->world(), held_, held_results_,
                         static_cast<int>(per_result), mine_);
  }
  write_back(mine_, per_result);
  for (std::size_t c = 0; c < ncols; ++c)
    prev_cost_[c] = mine_[c * per_result + per_item];
  clock.memory_traffic(static_cast<double>(mine_.size()) * sizeof(double));
  timings_.balance_sec += clock.now() - t_ret0;
  return {held_.imbalance_before, held_.imbalance_after, held_.iterations};
}

}  // namespace agcm::physics
