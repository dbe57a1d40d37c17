// Concrete parallel filter variants. See parallel.hpp for the overview.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fft/fft.hpp"
#include "filter/parallel.hpp"
#include "filter/plan.hpp"
#include "util/aligned.hpp"

namespace agcm::filter {

/// The original AGCM algorithm: physical-space convolution, one variable at
/// a time (the paper's new module removed this serialisation), under one of
/// two communication patterns (the paper's Section 2 tradeoff):
///
///   convolution-ring  chunks rotate ncols-1 hops westward around the
///                     processor ring; each node adds every visiting
///                     chunk's partial sums into its output chunk.
///   convolution-tree  whole lines are allgathered within the processor row
///                     (binomial gather + broadcast), then every node
///                     convolves its own output chunk: fewer messages,
///                     larger volume.
class ConvolutionFilter final : public PolarFilter {
 public:
  ConvolutionFilter(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                    const FilterBank& bank, FilterAlgorithm algorithm);
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return algorithm_name(algorithm_); }

 private:
  /// The middle steps: fill `out` (my zeroed output chunks) from my
  /// chunks in mine_ (the ring rotates them through mine_ in place).
  void ring(std::span<const LineKey> lines, std::span<double> out);
  void tree(std::span<const LineKey> lines, std::span<double> out);

  FilterAlgorithm algorithm_;
  std::vector<LineKey> lines_;  ///< local filtered lines, canonical order
  // Growth-only scratch reused across apply() calls, one variable at a
  // time, so both algorithms' steady state is allocation-free
  // (tests/test_comm_alloc.cpp). The line buffers scale with the rank's
  // share of the grid, so they come from the recycling aligned allocator
  // like the fields (util/aligned.hpp).
  using Lines = std::vector<double, util::AlignedAllocator<double, 64>>;
  Lines mine_;                ///< my chunks (ring: the circulating chunks)
  Lines out_;                 ///< my output chunks
  std::vector<int> counts_;   ///< tree: per-column allgatherv counts
  Lines gathered_;            ///< tree: the allgathered column blocks
  Lines full_;                ///< tree: whole lines
  std::vector<double> kext_;  ///< ring: one kernel, extended by ni - 1
};

/// The transpose-filter pipeline behind three algorithms: whole lines are
/// brought local by a transpose within each processor row (Figure 3),
/// filtered by a line engine, and transposed back. All variables are
/// filtered concurrently (Section 3.3): one transpose moves every line.
///
///   fft-transpose            Section 3.2, second approach: whole-line
///                            FFTs. No latitudinal balancing, so
///                            equatorward processor rows stay idle.
///   fft-load-balanced        Section 3.3, the paper's contribution: a
///                            Figure-2 stage in front redistributes data
///                            rows latitudinally so every processor row
///                            holds ~equal filtering work; it is undone
///                            after the back transpose.
///   convolution-partitioned  Extension beyond the paper (docs/filter.md):
///                            the partitioned overlap-save streaming engine
///                            instead of whole-line transforms.
class TransposeFilter final : public PolarFilter {
 public:
  /// `algorithm` is one of the three above. For fft-load-balanced the
  /// constructor does the one-time set-up (plan, bookkeeping charge and a
  /// cross-node agreement check) and is collective over the mesh.
  TransposeFilter(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                  const FilterBank& bank, FilterAlgorithm algorithm);
  void apply_impl(std::span<grid::Array3D<double>* const> fields) override;
  std::string_view name() const override { return algorithm_name(algorithm_); }

 private:
  FilterAlgorithm algorithm_;
  std::shared_ptr<const fft::FftPlan> fft_plan_;  ///< FFT engine only
  std::optional<BalancedFilterPlan> balance_;     ///< Figure 2, if balanced
  RowTransposePlan transpose_;                    ///< Figure 3
  // Virtual flops per filtered pair / single line (frozen FFT accounting,
  // or the partitioned backend's PartitionPlan model).
  double pair_flops_ = 0.0;
  double single_flops_ = 0.0;
  // Growth-only scratch reused across apply() calls; together with the
  // pooled transport this makes the steady-state filter path allocation-free
  // (tests/test_comm_alloc.cpp).
  std::vector<double> chunks_;  ///< my chunks, in extraction order
  std::vector<double> held_;    ///< Figure-2 output (balanced only)
  std::vector<double> full_;    ///< whole owned lines
};

}  // namespace agcm::filter
