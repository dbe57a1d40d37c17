// FilterBank: everything static about a filtering configuration.
//
// Given the grid and the list of filtered variables (each strong or weak),
// the bank precomputes, once:
//   * which global latitude rows each variable filters,
//   * the response line S(s, phi) for every (kind, latitude) pair,
//   * the global enumeration of "data lines" (variable, latitude, layer) —
//     the unit of work every parallel variant schedules — plus the same
//     list sliced per variable.
// This mirrors the paper's observation that S is "independent of time and
// height": tables are shared across layers and timesteps.
//
// The equivalent convolution kernels (an O(nlon^2) inverse transform per
// row) are built lazily on first use, so FFT-variant runs never pay for
// them. Lazy construction is guarded by std::call_once per (kind, row):
// a const FilterBank may be shared across rank threads.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "filter/partition.hpp"
#include "filter/response.hpp"
#include "grid/latlon.hpp"

namespace agcm::filter {

/// One filtered model variable.
struct FilteredVariable {
  std::string name;
  FilterKind kind = FilterKind::kStrong;
};

/// One longitude circle to be filtered.
struct LineKey {
  int var = 0;   ///< index into the bank's variable list
  int j = 0;     ///< global latitude row
  int k = 0;     ///< vertical layer
};

class FilterBank {
 public:
  FilterBank(const grid::LatLonGrid& grid,
             std::vector<FilteredVariable> variables);

  const grid::LatLonGrid& grid() const { return *grid_; }
  int nvars() const { return static_cast<int>(variables_.size()); }
  const FilteredVariable& variable(int v) const {
    return variables_[static_cast<std::size_t>(v)];
  }

  /// True if variable v is filtered at global latitude row j.
  bool filtered(int v, int j) const;

  /// Global rows filtered for variable v (ascending).
  const std::vector<int>& rows(int v) const;

  /// Response line S(s, lat_j) for variable v at row j (length nlon).
  /// One table row per (kind, latitude): all layers and variables of the
  /// same kind share the row, so the returned span's .data() identifies it.
  std::span<const double> response(int v, int j) const;
  /// Equivalent convolution kernel (length nlon). Built lazily on first
  /// request for the (kind, row) pair; thread-safe on a shared const bank.
  std::span<const double> kernel(int v, int j) const;
  /// Uniform-partitioned frequency-domain form of kernel(v, j) for the
  /// overlap-save streaming backend (docs/filter.md). Built lazily through
  /// the same per-(kind, row) call_once path as the kernel itself.
  const PartitionedKernel& partition(int v, int j) const;

  /// All lines (var, j, k), ordered by (var, j, k). Every parallel variant
  /// schedules exactly this list, so results are comparable bit-for-bit.
  const std::vector<LineKey>& lines() const { return lines_; }

  /// Lines of a single variable, in (j, k) order (the original AGCM filtered
  /// "one variable at a time"). Precomputed: O(1) per call.
  const std::vector<LineKey>& lines_of(int v) const;

 private:
  const grid::LatLonGrid* grid_;
  std::vector<FilteredVariable> variables_;
  std::vector<std::vector<int>> rows_;  ///< per variable
  // Tables keyed by (kind, j): one set per FilterKind. Responses are eager
  // (cheap, and the FFT variants key pair-packing off their row addresses);
  // kernels (O(nlon^2) each, convolution-only) and partitioned-OLS spectra
  // (only the partitioned backend pays their per-row transform) are lazy.
  struct KindTables {
    std::vector<std::vector<double>> response;
    mutable std::vector<std::vector<double>> kernel;
    mutable std::vector<std::unique_ptr<PartitionedKernel>> partition;
    // One flag per latitude row; std::once_flag is immovable, hence the
    // arrays. Guards the lazy kernel / partition builds above.
    mutable std::unique_ptr<std::once_flag[]> kernel_once;
    mutable std::unique_ptr<std::once_flag[]> partition_once;
  };
  /// Variable v's tables.
  const KindTables& tables(int v) const;

  std::array<KindTables, 2> tables_;  ///< indexed by FilterKind
  std::vector<LineKey> lines_;
  std::vector<std::vector<LineKey>> lines_by_var_;
};

}  // namespace agcm::filter
