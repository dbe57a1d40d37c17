#include "filter/plan.hpp"

#include <algorithm>
#include <cstring>

#include "comm/packed.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"

namespace agcm::filter {

namespace {

/// Per-destination message-size vectors handed to alltoallv_packed. Per
/// *rank* (util::rank_local), not per thread: the exchange blocks in recv,
/// so under the fiber backend another rank's fiber can run on this worker
/// thread mid-call and must not clobber the sizes the parked exchange
/// still reads.
struct SizesScratch {
  util::GrowBuffer<std::size_t> send;
  util::GrowBuffer<std::size_t> recv;
};

}  // namespace

RowTransposePlan::RowTransposePlan(const comm::Mesh2D& mesh,
                                   const grid::Decomp2D& decomp,
                                   std::vector<LineKey> lines)
    : lines_(std::move(lines)),
      ncols_(mesh.cols()),
      mycol_(mesh.coord().col),
      nlon_(decomp.nlon()) {
  col_width_.resize(static_cast<std::size_t>(ncols_));
  col_start_.resize(static_cast<std::size_t>(ncols_));
  for (int c = 0; c < ncols_; ++c) {
    col_width_[static_cast<std::size_t>(c)] = decomp.lon_partition().size(c);
    col_start_[static_cast<std::size_t>(c)] = decomp.lon_partition().start(c);
  }
  for (std::size_t q = 0; q < lines_.size(); ++q) {
    if (owner_col(q) == mycol_) {
      owned_.push_back(q);
      owned_keys_.push_back(lines_[q]);
    }
  }
}

void RowTransposePlan::to_lines_into(const comm::Mesh2D& mesh,
                                     std::span<const double> my_chunks,
                                     std::span<double> full) const {
  const auto& row = mesh.row_comm();
  auto& clock = row.context().clock();
  const auto ni =
      static_cast<std::size_t>(col_width_[static_cast<std::size_t>(mycol_)]);
  AGCM_ASSERT(my_chunks.size() == lines_.size() * ni);
  AGCM_ASSERT(full.size() == line_elems());

  // Per-column message sizes (bytes). Round-robin ownership makes the
  // per-destination line list pure arithmetic (q = c, c+ncols, ...), so no
  // permutation tables and no staging buffer: each destination's chunks are
  // gathered straight into its pooled wire buffer. The count scratch is
  // rank-local growth-only, so the steady-state path never allocates.
  auto& sizes = util::rank_local<SizesScratch>();
  std::span<std::size_t> send_bytes =
      sizes.send.take(static_cast<std::size_t>(ncols_));
  std::span<std::size_t> recv_bytes =
      sizes.recv.take(static_cast<std::size_t>(ncols_));
  std::size_t send_total = 0;
  for (int c = 0; c < ncols_; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    send_bytes[uc] = lines_to_col(c) * ni * sizeof(double);
    recv_bytes[uc] = owned_.size() *
                  static_cast<std::size_t>(col_width_[uc]) * sizeof(double);
    send_total += send_bytes[uc];
  }
  clock.memory_traffic(static_cast<double>(send_total));

  row.alltoallv_packed(
      send_bytes, recv_bytes,
      [&](int dst, comm::PackedWriter& w) {
        for (std::size_t q = static_cast<std::size_t>(dst);
             q < lines_.size(); q += static_cast<std::size_t>(ncols_)) {
          w.write<double>(my_chunks.subspan(q * ni, ni));
        }
      },
      [&](int src, comm::PackedReader& r) {
        const auto usrc = static_cast<std::size_t>(src);
        const auto w = static_cast<std::size_t>(col_width_[usrc]);
        const auto start = static_cast<std::size_t>(col_start_[usrc]);
        for (std::size_t p = 0; p < owned_.size(); ++p) {
          const auto slice = r.view<double>(w);
          std::memcpy(full.data() + p * static_cast<std::size_t>(nlon_) + start,
                      slice.data(), slice.size_bytes());
        }
      });
  clock.memory_traffic(static_cast<double>(full.size()) * sizeof(double));
}

void RowTransposePlan::to_chunks_into(const comm::Mesh2D& mesh,
                                      std::span<const double> full_lines,
                                      std::span<double> chunks) const {
  const auto& row = mesh.row_comm();
  auto& clock = row.context().clock();
  const auto ni =
      static_cast<std::size_t>(col_width_[static_cast<std::size_t>(mycol_)]);
  AGCM_ASSERT(full_lines.size() == line_elems());
  AGCM_ASSERT(chunks.size() == lines_.size() * ni);

  auto& sizes = util::rank_local<SizesScratch>();
  std::span<std::size_t> send_bytes =
      sizes.send.take(static_cast<std::size_t>(ncols_));
  std::span<std::size_t> recv_bytes =
      sizes.recv.take(static_cast<std::size_t>(ncols_));
  std::size_t send_total = 0;
  for (int c = 0; c < ncols_; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    send_bytes[uc] = owned_.size() *
                  static_cast<std::size_t>(col_width_[uc]) * sizeof(double);
    recv_bytes[uc] = lines_to_col(c) * ni * sizeof(double);
    send_total += send_bytes[uc];
  }
  clock.memory_traffic(static_cast<double>(send_total));

  row.alltoallv_packed(
      send_bytes, recv_bytes,
      [&](int dst, comm::PackedWriter& w) {
        // Destination column gets its slice of every owned line.
        const auto udst = static_cast<std::size_t>(dst);
        const auto width = static_cast<std::size_t>(col_width_[udst]);
        const auto start = static_cast<std::size_t>(col_start_[udst]);
        for (std::size_t p = 0; p < owned_.size(); ++p) {
          w.write<double>(full_lines.subspan(
              p * static_cast<std::size_t>(nlon_) + start, width));
        }
      },
      [&](int src, comm::PackedReader& r) {
        // From owner column `src`: my chunks of its lines, in global line
        // order — q = src, src+ncols, ... (arithmetic, no tables).
        for (std::size_t q = static_cast<std::size_t>(src);
             q < lines_.size(); q += static_cast<std::size_t>(ncols_)) {
          const auto slice = r.view<double>(ni);
          std::memcpy(chunks.data() + q * ni, slice.data(),
                      slice.size_bytes());
        }
      });
  clock.memory_traffic(static_cast<double>(chunks.size()) * sizeof(double));
}

BalancedFilterPlan::BalancedFilterPlan(const comm::Mesh2D& mesh,
                                       const grid::Decomp2D& decomp,
                                       const FilterBank& bank) {
  const int nrows = mesh.rows();
  const int myrow = mesh.coord().row;
  ni_ = decomp.box(mesh.coord()).ni;

  // Global redistribution order: all filtered lines ordered by source row,
  // ties broken by the bank's canonical (var, j, k) order. Ordering by
  // source row makes each row's lines a contiguous block, so the monotone
  // block assignment below preserves latitudinal locality (Figure 2: polar
  // rows spill into their equatorward neighbours first). Bank positions
  // already ascend, so one counting pass by source row places every line:
  // O(lines + rows), the order of a stable sort by row.
  struct Tagged {
    LineKey key;
    int src_row;
  };
  const std::vector<LineKey>& lines = bank.lines();
  const std::size_t total = lines.size();
  std::vector<std::size_t> next(static_cast<std::size_t>(nrows) + 1, 0);
  for (const LineKey& line : lines)
    ++next[static_cast<std::size_t>(decomp.lat_partition().owner(line.j)) + 1];
  for (std::size_t r = 1; r < next.size(); ++r) next[r] += next[r - 1];
  std::vector<Tagged> global(total);
  for (const LineKey& line : lines) {
    const int src = decomp.lat_partition().owner(line.j);
    global[next[static_cast<std::size_t>(src)]++] = {line, src};
  }

  auto dest_row = [&](std::size_t q) {
    return static_cast<int>(q * static_cast<std::size_t>(nrows) / total);
  };

  send_lines_.assign(static_cast<std::size_t>(nrows), 0);
  recv_lines_.assign(static_cast<std::size_t>(nrows), 0);
  std::vector<int> held_per_row(static_cast<std::size_t>(nrows), 0);
  for (std::size_t q = 0; q < total; ++q) {
    const int src = global[q].src_row;
    const int dst = dest_row(q);
    ++held_per_row[static_cast<std::size_t>(dst)];
    if (src == myrow) {
      my_lines_.push_back(global[q].key);
      ++send_lines_[static_cast<std::size_t>(dst)];
    }
    if (dst == myrow) {
      held_lines_.push_back(global[q].key);
      ++recv_lines_[static_cast<std::size_t>(src)];
    }
  }
  const double ideal = static_cast<double>(total) / nrows;
  post_balance_ratio_ =
      ideal > 0.0
          ? *std::max_element(held_per_row.begin(), held_per_row.end()) / ideal
          : 1.0;

  // Cached prefix offsets (elements) into the two chunk layouts: my_lines_
  // is grouped by destination row and held_lines_ by source row, so each
  // peer's block is a contiguous subspan — the pack/unpack closures below
  // are single memcpys.
  send_offsets_.assign(static_cast<std::size_t>(nrows) + 1, 0);
  recv_offsets_.assign(static_cast<std::size_t>(nrows) + 1, 0);
  for (int r = 0; r < nrows; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    send_offsets_[ur + 1] =
        send_offsets_[ur] +
        static_cast<std::size_t>(send_lines_[ur]) * static_cast<std::size_t>(ni_);
    recv_offsets_[ur + 1] =
        recv_offsets_[ur] +
        static_cast<std::size_t>(recv_lines_[ur]) * static_cast<std::size_t>(ni_);
  }
}

void BalancedFilterPlan::redistribute_into(const comm::Mesh2D& mesh,
                                           std::span<const double> my_chunks,
                                           std::span<double> held) const {
  const auto& col = mesh.col_comm();
  AGCM_ASSERT(my_chunks.size() == my_chunk_elems());
  AGCM_ASSERT(held.size() == held_chunk_elems());
  const auto nrows = send_lines_.size();
  auto& sizes = util::rank_local<SizesScratch>();
  std::span<std::size_t> send_bytes = sizes.send.take(nrows);
  std::span<std::size_t> recv_bytes = sizes.recv.take(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    send_bytes[r] = (send_offsets_[r + 1] - send_offsets_[r]) * sizeof(double);
    recv_bytes[r] = (recv_offsets_[r + 1] - recv_offsets_[r]) * sizeof(double);
  }
  // my_lines_ is ordered by global q, and dest rows are monotone in q, so
  // the chunk buffer is already grouped by destination: no permutation.
  col.alltoallv_packed(
      send_bytes, recv_bytes,
      [&](int dst, comm::PackedWriter& w) {
        const auto ud = static_cast<std::size_t>(dst);
        w.write<double>(my_chunks.subspan(
            send_offsets_[ud], send_offsets_[ud + 1] - send_offsets_[ud]));
      },
      [&](int src, comm::PackedReader& r) {
        const auto us = static_cast<std::size_t>(src);
        const auto n = recv_offsets_[us + 1] - recv_offsets_[us];
        r.read<double>(held.subspan(recv_offsets_[us], n));
      });
}

void BalancedFilterPlan::restore_into(const comm::Mesh2D& mesh,
                                      std::span<const double> held_chunks,
                                      std::span<double> mine) const {
  const auto& col = mesh.col_comm();
  AGCM_ASSERT(held_chunks.size() == held_chunk_elems());
  AGCM_ASSERT(mine.size() == my_chunk_elems());
  const auto nrows = send_lines_.size();
  auto& sizes = util::rank_local<SizesScratch>();
  std::span<std::size_t> send_bytes = sizes.send.take(nrows);
  std::span<std::size_t> recv_bytes = sizes.recv.take(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    send_bytes[r] = (recv_offsets_[r + 1] - recv_offsets_[r]) * sizeof(double);
    recv_bytes[r] = (send_offsets_[r + 1] - send_offsets_[r]) * sizeof(double);
  }
  col.alltoallv_packed(
      send_bytes, recv_bytes,
      [&](int dst, comm::PackedWriter& w) {
        const auto ud = static_cast<std::size_t>(dst);
        w.write<double>(held_chunks.subspan(
            recv_offsets_[ud], recv_offsets_[ud + 1] - recv_offsets_[ud]));
      },
      [&](int src, comm::PackedReader& r) {
        const auto us = static_cast<std::size_t>(src);
        const auto n = send_offsets_[us + 1] - send_offsets_[us];
        r.read<double>(mine.subspan(send_offsets_[us], n));
      });
}

}  // namespace agcm::filter
