#include "filter/bank.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace agcm::filter {

FilterBank::FilterBank(const grid::LatLonGrid& grid,
                       std::vector<FilteredVariable> variables)
    : grid_(&grid), variables_(std::move(variables)) {
  check_config(!variables_.empty(), "FilterBank needs at least one variable");
  const int nlat = grid.nlat();
  const int nlon = grid.nlon();

  for (const FilterKind kind : {FilterKind::kStrong, FilterKind::kWeak}) {
    KindTables& t = tables_[static_cast<std::size_t>(kind)];
    t.response.resize(static_cast<std::size_t>(nlat));
    t.kernel.resize(static_cast<std::size_t>(nlat));
    t.partition.resize(static_cast<std::size_t>(nlat));
    t.kernel_once =
        std::make_unique<std::once_flag[]>(static_cast<std::size_t>(nlat));
    t.partition_once =
        std::make_unique<std::once_flag[]>(static_cast<std::size_t>(nlat));
    for (int j = 0; j < nlat; ++j) {
      if (grid.poleward_of(j, cutoff_deg(kind)))
        t.response[static_cast<std::size_t>(j)] =
            response_line(kind, nlon, grid.lat_center(j));
    }
  }

  rows_.resize(variables_.size());
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    for (int j = 0; j < nlat; ++j) {
      if (grid.poleward_of(j, cutoff_deg(variables_[v].kind)))
        rows_[v].push_back(j);
    }
  }

  lines_by_var_.resize(variables_.size());
  for (int v = 0; v < nvars(); ++v) {
    const auto uv = static_cast<std::size_t>(v);
    lines_by_var_[uv].reserve(rows_[uv].size() *
                              static_cast<std::size_t>(grid.nlev()));
    for (int j : rows_[uv])
      for (int k = 0; k < grid.nlev(); ++k) {
        lines_.push_back({v, j, k});
        lines_by_var_[uv].push_back({v, j, k});
      }
  }
}

bool FilterBank::filtered(int v, int j) const {
  AGCM_ASSERT(v >= 0 && v < nvars());
  return grid_->poleward_of(j, cutoff_deg(variables_[static_cast<std::size_t>(v)].kind));
}

const std::vector<int>& FilterBank::rows(int v) const {
  AGCM_ASSERT(v >= 0 && v < nvars());
  return rows_[static_cast<std::size_t>(v)];
}

const FilterBank::KindTables& FilterBank::tables(int v) const {
  return tables_[static_cast<std::size_t>(
      variables_[static_cast<std::size_t>(v)].kind)];
}

std::span<const double> FilterBank::response(int v, int j) const {
  AGCM_ASSERT(filtered(v, j));
  return tables(v).response[static_cast<std::size_t>(j)];
}

std::span<const double> FilterBank::kernel(int v, int j) const {
  AGCM_ASSERT(filtered(v, j));
  const auto uj = static_cast<std::size_t>(j);
  const KindTables& t = tables(v);
  // Lazy build (O(nlon^2)); call_once because a const bank is shared
  // across rank threads in the parallel-variant tests and benches.
  std::call_once(t.kernel_once[uj], [&] {
    t.kernel[uj] = kernel_from_response(t.response[uj]);
  });
  return t.kernel[uj];
}

const PartitionedKernel& FilterBank::partition(int v, int j) const {
  AGCM_ASSERT(filtered(v, j));
  const auto uj = static_cast<std::size_t>(j);
  const KindTables& t = tables(v);
  // Lazy build on top of the (itself lazy) convolution kernel: nested
  // call_once on distinct flags, so a kernel-only run never transforms
  // partitions and a partition run builds the kernel exactly once.
  std::call_once(t.partition_once[uj], [&] {
    t.partition[uj] =
        std::make_unique<PartitionedKernel>(kernel(v, j), grid_->nlon());
  });
  return *t.partition[uj];
}

const std::vector<LineKey>& FilterBank::lines_of(int v) const {
  AGCM_ASSERT(v >= 0 && v < nvars());
  return lines_by_var_[static_cast<std::size_t>(v)];
}

}  // namespace agcm::filter
