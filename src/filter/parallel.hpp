// Parallel polar filtering — the four variants the paper compares, plus
// two extensions beyond the paper (partitioned overlap-save streaming
// convolution and implicit zonal diffusion).
//
//   kConvolutionRing  the original AGCM algorithm: physical-space
//                     convolution, one variable at a time, data rotated
//                     around the processor ring in the longitudinal
//                     direction (Section 3.1 / Wehner et al.).
//   kConvolutionTree  the original code's alternative: whole lines gathered
//                     with tree communication, each node convolves its own
//                     output chunk (fewer messages, more volume).
//   kFftTranspose     Section 3.2: transpose the filtered lines within each
//                     processor row so FFTs run locally on whole lines.
//                     All variables are filtered concurrently.
//   kFftBalanced      Section 3.3: first redistribute data rows in the
//                     latitudinal direction so every processor ends up with
//                     ~equal filtering work (Figure 2), then transpose
//                     within rows (Figure 3), FFT locally, and undo both
//                     movements. Setup bookkeeping is done once.
//
// kConvolutionRing and kConvolutionTree are one class, ConvolutionFilter
// (variants.hpp): the same per-variable convolution with one of two
// communication patterns. kFftTranspose, kFftBalanced and
// kConvolutionPartitioned are one class, TransposeFilter (variants.hpp): the
// same transpose pipeline with an optional Figure-2 stage and one of two
// line engines.
//
// All variants filter exactly the same set of lines with mathematically
// equivalent operators, so their outputs agree to rounding — the
// integration tests rely on this.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "comm/mesh2d.hpp"
#include "filter/bank.hpp"
#include "grid/array3d.hpp"
#include "grid/decomp.hpp"

namespace agcm::filter {

enum class FilterAlgorithm {
  kConvolutionRing,
  kConvolutionTree,
  kFftTranspose,
  kFftBalanced,
  /// Extension beyond the paper: uniform-partitioned overlap-save
  /// streaming convolution — FFT-accelerated convolution in fixed-size
  /// blocks, same transpose movement as kFftTranspose but block FFTs of
  /// length 2B instead of whole-line transforms (docs/filter.md).
  /// Mathematically the convolution operator: agrees with the other
  /// variants to rounding. Opt-in; never used by the frozen paper runs.
  kConvolutionPartitioned,
  /// Extension beyond the paper: implicit zonal diffusion solved with a
  /// distributed periodic tridiagonal solver (see implicit_zonal.hpp).
  /// Approximates — does not exactly equal — the spectral filter.
  kImplicitZonal,
};

std::string_view algorithm_name(FilterAlgorithm algorithm);

class PolarFilter {
 public:
  PolarFilter(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
              const FilterBank& bank);
  virtual ~PolarFilter() = default;

  PolarFilter(const PolarFilter&) = delete;
  PolarFilter& operator=(const PolarFilter&) = delete;

  /// Filters the registered variables in place. `fields[v]` is the local
  /// block of the bank's variable v (interior ni x nj x nlev; ghosts, if
  /// any, are neither read nor written). Collective over the mesh. When
  /// tracing is enabled (trace/tracer.hpp) the call is wrapped in a
  /// "filter.<name>" virtual-time span; otherwise it forwards straight to
  /// the variant implementation.
  void apply(std::span<grid::Array3D<double>* const> fields);

  virtual std::string_view name() const = 0;

  const comm::Mesh2D& mesh() const { return *mesh_; }
  const grid::Decomp2D& decomp() const { return *decomp_; }
  const FilterBank& bank() const { return *bank_; }
  const grid::LocalBox& box() const { return box_; }

 protected:
  /// The variant's filtering algorithm (called by the traced apply()).
  virtual void apply_impl(std::span<grid::Array3D<double>* const> fields) = 0;

  /// All lines (var, j, k) whose latitude row falls in my band, in the
  /// bank's canonical order.
  std::vector<LineKey> local_lines() const;

  /// The local chunk of the longitude circle (var-block `field`, global row
  /// gj, layer k): `ni` contiguous doubles.
  static std::span<double> chunk(grid::Array3D<double>& field,
                                 const grid::LocalBox& box, int gj, int k);

  void validate_fields(std::span<grid::Array3D<double>* const> fields) const;

 private:
  const comm::Mesh2D* mesh_;
  const grid::Decomp2D* decomp_;
  const FilterBank* bank_;
  grid::LocalBox box_;
};

/// Factory. The returned filter keeps references to mesh/decomp/bank; they
/// must outlive it.
std::unique_ptr<PolarFilter> make_filter(FilterAlgorithm algorithm,
                                         const comm::Mesh2D& mesh,
                                         const grid::Decomp2D& decomp,
                                         const FilterBank& bank);

/// Gathers this node's ni-wide chunk of every line in `lines` order into
/// `chunks` (size lines.size() * box.ni) — the layout the movement plans
/// expect. Allocation-free: callers own the (growth-only) destination.
void extract_chunks_into(std::span<grid::Array3D<double>* const> fields,
                         const grid::LocalBox& box,
                         std::span<const LineKey> lines,
                         std::span<double> chunks);

/// Inverse of extract_chunks_into.
void write_chunks(std::span<grid::Array3D<double>* const> fields,
                  const grid::LocalBox& box, std::span<const LineKey> lines,
                  std::span<const double> chunks);

}  // namespace agcm::filter
