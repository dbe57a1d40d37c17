// Concrete parallel filter variants. See parallel.hpp for the overview.
#pragma once

#include <memory>
#include <optional>

#include "fft/fft.hpp"
#include "filter/parallel.hpp"
#include "filter/plan.hpp"

namespace agcm::filter {

/// Filters a buffer of whole owned lines (nlon doubles each, in
/// owned-lines order) in place, pairing lines through the two-for-one real
/// FFT so two lines share each complex transform — the vendor-library
/// trick the paper's "highly efficient FFT library codes" refers to.
/// Charges the virtual clock.
void filter_owned_lines_fft(const fft::FftPlan& plan, const FilterBank& bank,
                            std::span<const LineKey> owned,
                            std::span<double> full_lines,
                            simnet::VirtualClock& clock);

/// The original AGCM algorithm: physical-space convolution with the chunk
/// data rotated around the processor ring in the longitudinal direction.
/// Variables are filtered one at a time (as in the original code — the
/// paper's new module removed this serialisation).
class ConvolutionRingFilter final : public PolarFilter {
 public:
  using PolarFilter::PolarFilter;
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return "convolution-ring"; }

 private:
  void filter_variable(grid::Array3D<double>& field, int v);
};

/// Convolution with tree-based line gathering: whole lines are allgathered
/// within the processor row (binomial gather + broadcast), then every node
/// convolves only its own output chunk. Fewer messages than the ring,
/// larger transferred volume (the paper's Section 2 tradeoff).
class ConvolutionTreeFilter final : public PolarFilter {
 public:
  using PolarFilter::PolarFilter;
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return "convolution-tree"; }

 private:
  void filter_variable(grid::Array3D<double>& field, int v);
};

/// FFT filtering after a data transpose within each processor row
/// (Section 3.2, second approach): lines are redistributed among the row's
/// nodes so each FFT runs locally on a whole line; inverse movement
/// restores the layout. All variables are filtered concurrently. No
/// latitudinal load balancing: equatorward processor rows stay idle.
class FftTransposeFilter final : public PolarFilter {
 public:
  FftTransposeFilter(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                     const FilterBank& bank);
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return "fft-transpose"; }

 private:
  std::shared_ptr<const fft::FftPlan> fft_plan_;  // fft::shared_plan(nlon)
  RowTransposePlan plan_;
  // Growth-only scratch reused across apply() calls; together with the
  // pooled transport this makes the steady-state filter path allocation-free
  // (tests/test_comm_alloc.cpp).
  std::vector<double> chunks_;
  std::vector<double> full_;
};

/// Filters a buffer of whole owned lines (nlon doubles each, in
/// owned-lines order) in place through the partitioned overlap-save
/// streaming engine, pairing same-row lines two-for-one through the
/// packed-complex transforms. Charges the virtual clock with the
/// partitioned backend's (new, non-frozen) deterministic accounting.
void filter_owned_lines_partition(const FilterBank& bank,
                                  std::span<const LineKey> owned,
                                  std::span<double> full_lines,
                                  simnet::VirtualClock& clock);

/// Extension beyond the paper: partitioned overlap-save streaming
/// convolution (docs/filter.md). Same row-transpose data movement as
/// FftTransposeFilter, but each whole line is filtered by the uniform-
/// partitioned OLS engine — length-2B block FFTs against the bank's
/// cached per-row partition spectra — instead of a whole-line transform.
/// The third point of the Tables 8-11 crossover study.
class PartitionedConvFilter final : public PolarFilter {
 public:
  PartitionedConvFilter(const comm::Mesh2D& mesh,
                        const grid::Decomp2D& decomp, const FilterBank& bank);
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return "convolution-partitioned"; }

 private:
  RowTransposePlan plan_;
  // Growth-only scratch reused across apply() calls (allocation-free
  // steady state, as in FftTransposeFilter).
  std::vector<double> chunks_;
  std::vector<double> full_;
};

/// The paper's contribution (Section 3.3): load-balanced FFT filtering.
/// Stage A redistributes data rows in the latitudinal direction so every
/// processor row holds ~equal filtering work (Figure 2); stage B transposes
/// within rows (Figure 3); FFTs run locally; both movements are undone.
/// The non-trivial setup bookkeeping is done once, at construction.
class FftBalancedFilter final : public PolarFilter {
 public:
  FftBalancedFilter(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                    const FilterBank& bank);
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return "fft-load-balanced"; }

  /// Virtual seconds spent building the plan (the paper: "its cost is not
  /// an issue for a long AGCM simulation since it is done only once").
  double setup_cost_sec() const { return setup_cost_sec_; }

 private:
  std::shared_ptr<const fft::FftPlan> fft_plan_;  // fft::shared_plan(nlon)
  BalancedFilterPlan plan_;
  double setup_cost_sec_ = 0.0;
  // Growth-only scratch reused across apply() calls (allocation-free
  // steady state, as in FftTransposeFilter).
  std::vector<double> my_chunks_;
  std::vector<double> held_;
  std::vector<double> full_;
};

}  // namespace agcm::filter
