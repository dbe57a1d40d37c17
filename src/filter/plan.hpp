// Data-movement plans for the FFT filter variants.
//
// RowTransposePlan implements the Figure-3 movement: within one processor
// row, chunks of the filtered lines are exchanged so that each node ends up
// holding *whole* longitude circles (ready for a local FFT); the inverse
// movement restores the original chunk layout.
//
// BalancedFilterPlan is the Figure-2 movement the load-balanced filter runs
// in front: data rows are first redistributed in the latitudinal direction
// so every processor row holds approximately sum(R_j)/M lines (the paper's
// equation (3) applied over mesh rows), regardless of how many rows each
// hemisphere filters; a RowTransposePlan over its held_lines() follows.
// Both plans are pure bookkeeping computed identically on every node from
// global metadata — "the set-up involves substantial bookkeeping" (3.3).
#pragma once

#include <span>
#include <vector>

#include "comm/mesh2d.hpp"
#include "filter/bank.hpp"
#include "grid/decomp.hpp"

namespace agcm::filter {

/// Chunk layout convention used throughout: a "chunk buffer" stores one
/// fixed-width chunk per line, consecutively, in the plan's line order.
class RowTransposePlan {
 public:
  RowTransposePlan() = default;

  /// `lines` are the circles this processor row must filter; every node of
  /// the row must pass the identical list (not checked here: the transposes
  /// would mismatch message sizes).
  RowTransposePlan(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                   std::vector<LineKey> lines);

  const std::vector<LineKey>& lines() const { return lines_; }

  /// Keys of the whole lines this node assembles and filters, in the order
  /// they appear in the buffer filled by to_lines_into().
  const std::vector<LineKey>& owned_lines() const { return owned_keys_; }

  /// Size of the chunk buffer (my ni-wide chunk of every line in lines()).
  std::size_t chunk_elems() const {
    return lines_.size() *
           static_cast<std::size_t>(col_width_[static_cast<std::size_t>(mycol_)]);
  }
  /// Size of the whole-line buffer (nlon doubles per owned line).
  std::size_t line_elems() const {
    return owned_.size() * static_cast<std::size_t>(nlon_);
  }

  /// Forward transpose: `my_chunks` holds my ni-wide chunk of every line in
  /// lines() order; fills `full` (size line_elems()) with whole lines for
  /// the lines this node owns. Allocation-free in steady state: every
  /// outgoing chunk is packed straight into its pooled wire buffer and
  /// every incoming slice is scattered straight from the payload into
  /// `full`. Collective over the row.
  void to_lines_into(const comm::Mesh2D& mesh,
                     std::span<const double> my_chunks,
                     std::span<double> full) const;

  /// Inverse transpose: takes the filtered whole lines (owned_lines()
  /// order) and fills `chunks` (size chunk_elems()) with my chunks of every
  /// line in lines() order. Allocation-free like to_lines_into.
  void to_chunks_into(const comm::Mesh2D& mesh,
                      std::span<const double> full_lines,
                      std::span<double> chunks) const;

 private:
  int owner_col(std::size_t q) const {
    return static_cast<int>(q % static_cast<std::size_t>(ncols_));
  }
  /// Lines destined for column c: q = c, c+ncols, c+2*ncols, ... — the
  /// round-robin ownership makes per-destination line lists pure
  /// arithmetic, so the pack loops need no permutation tables.
  std::size_t lines_to_col(int c) const {
    if (lines_.empty()) return 0;
    const auto n = lines_.size();
    const auto uc = static_cast<std::size_t>(c);
    return uc < n ? (n - uc - 1) / static_cast<std::size_t>(ncols_) + 1 : 0;
  }

  std::vector<LineKey> lines_;
  std::vector<LineKey> owned_keys_;
  std::vector<std::size_t> owned_;  ///< indices into lines_ that I own
  std::vector<int> col_width_;      ///< ni of each mesh column
  std::vector<int> col_start_;      ///< i0 of each mesh column
  int ncols_ = 0;
  int mycol_ = 0;
  int nlon_ = 0;
};

/// The Figure-2 latitudinal redistribution of the fft-load-balanced
/// filter (TransposeFilter, variants.hpp).
class BalancedFilterPlan {
 public:
  BalancedFilterPlan(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                     const FilterBank& bank);

  /// Lines whose latitude row lies in my band, in redistribution order
  /// (callers must extract chunks in exactly this order).
  const std::vector<LineKey>& my_lines() const { return my_lines_; }

  /// Lines this node's row holds after the latitudinal redistribution.
  const std::vector<LineKey>& held_lines() const { return held_lines_; }

  /// Chunk-buffer sizes for the two layouts.
  std::size_t my_chunk_elems() const {
    return my_lines_.size() * static_cast<std::size_t>(ni_);
  }
  std::size_t held_chunk_elems() const {
    return held_lines_.size() * static_cast<std::size_t>(ni_);
  }

  /// Stage A: redistribute chunks along the mesh column. Input in
  /// my_lines() order, output (size held_chunk_elems()) in held_lines()
  /// order. Allocation-free in steady state (pooled wire buffers, no
  /// staging vectors). Collective over the mesh column.
  void redistribute_into(const comm::Mesh2D& mesh,
                         std::span<const double> my_chunks,
                         std::span<double> held) const;

  /// Inverse of redistribute_into(); output size my_chunk_elems().
  void restore_into(const comm::Mesh2D& mesh,
                    std::span<const double> held_chunks,
                    std::span<double> mine) const;

  /// Max over rows of (lines held) / ideal — 1.0 means perfectly balanced.
  double post_balance_ratio() const { return post_balance_ratio_; }

  /// Element offsets of each mesh row's block in the my_lines() chunks
  /// (by destination row) and in the held_lines() chunks (by source row):
  /// nrows + 1 prefix sums each.
  std::span<const std::size_t> send_offsets() const { return send_offsets_; }
  std::span<const std::size_t> recv_offsets() const { return recv_offsets_; }

 private:
  std::vector<LineKey> my_lines_;
  std::vector<LineKey> held_lines_;
  std::vector<int> send_lines_;  ///< per dest row, lines I send
  std::vector<int> recv_lines_;  ///< per src row, lines I receive
  std::vector<std::size_t> send_offsets_;  ///< prefix elems of send_lines_*ni
  std::vector<std::size_t> recv_offsets_;  ///< prefix elems of recv_lines_*ni
  int ni_ = 0;  ///< my chunk width (identical within a mesh column)
  double post_balance_ratio_ = 1.0;
};

}  // namespace agcm::filter
