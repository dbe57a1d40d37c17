// The original AGCM's physical-space convolution filter (variants.hpp):
// convolution-ring and convolution-tree share one apply path and differ
// only in how each node comes to see the other columns' chunks.
#include <algorithm>
#include <string>
#include <vector>

#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "singlenode/miniblas.hpp"
#include "util/error.hpp"

namespace agcm::filter {

namespace {

constexpr int kRingTag = 310;

/// Adds one held chunk's contribution to my output chunk of a line:
///   dst[c] += sum_g kernel[(out_i0 + c - src_i0 - g) mod n] * src[g],
/// where the chunk holds global longitudes src_i0 .. src_i0 + src.size() - 1.
/// As g rises the lag walks down and, since src.size() <= n, wraps at most
/// once, so each partial sum is two chained ddot_strided calls (kernel
/// stride -1 from the first lag, then from n - 1). They add the same
/// products in the same order as a per-element `mod n` loop: bitwise
/// identical (tests/test_filter.cpp).
void accumulate_chunk(std::span<const double> kernel,
                      std::span<const double> src, int src_i0, int out_i0,
                      std::span<double> dst) {
  const auto n = static_cast<int>(kernel.size());
  const std::size_t m = src.size();
  for (std::size_t c = 0; c < dst.size(); ++c) {
    int lag0 = out_i0 + static_cast<int>(c) - src_i0;  // in (-n, n)
    if (lag0 < 0) lag0 += n;
    const std::size_t head = std::min(m, static_cast<std::size_t>(lag0) + 1);
    double acc = singlenode::ddot_strided(head, kernel.data() + lag0, -1,
                                          src.data(), 1, 0.0);
    acc = singlenode::ddot_strided(m - head, kernel.data() + (n - 1), -1,
                                   src.data() + head, 1, acc);
    dst[c] += acc;
  }
}

}  // namespace

ConvolutionFilter::ConvolutionFilter(const comm::Mesh2D& mesh,
                                     const grid::Decomp2D& decomp,
                                     const FilterBank& bank,
                                     FilterAlgorithm algorithm)
    : PolarFilter(mesh, decomp, bank),
      algorithm_(algorithm),
      lines_(local_lines()) {
  if (algorithm != FilterAlgorithm::kConvolutionRing &&
      algorithm != FilterAlgorithm::kConvolutionTree) {
    throw ConfigError("not a convolution-filter algorithm: " +
                      std::string(algorithm_name(algorithm)));
  }
}

void ConvolutionFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  // The original AGCM filtered "one variable at a time" (Section 3.3); the
  // serialisation is part of what the paper's new module removed, so we
  // reproduce it faithfully here. lines_ is var-major, so each variable's
  // lines form one contiguous run; a variable with no line in my band has
  // no run and sends nothing.
  const auto ni = static_cast<std::size_t>(box().ni);
  const std::span<const LineKey> all(lines_);
  for (std::size_t first = 0, last = 0; first < all.size(); first = last) {
    while (last < all.size() && all[last].var == all[first].var) ++last;
    const auto lines = all.subspan(first, last - first);
    mine_.resize(lines.size() * ni);
    extract_chunks_into(fields, box(), lines, mine_);
    out_.assign(lines.size() * ni, 0.0);
    if (algorithm_ == FilterAlgorithm::kConvolutionRing)
      ring(lines, out_);
    else
      tree(lines, out_);
    write_chunks(fields, box(), lines, out_);
  }
}

void ConvolutionFilter::ring(std::span<const LineKey> lines,
                             std::span<double> out) {
  const auto& row_comm = mesh().row_comm();
  auto& clock = row_comm.context().clock();
  const auto& lon = decomp().lon_partition();
  const int ncols = mesh().cols();
  const std::size_t nlines = lines.size();
  const auto ni = static_cast<std::size_t>(box().ni);

  // `held` starts as my own chunks; after r hops westward it holds the
  // chunks originally owned by column (mycol + r) mod ncols.
  std::vector<double>& held = mine_;
  for (int r = 0; r < ncols; ++r) {
    const int src_col = (mesh().coord().col + r) % ncols;
    const int src_i0 = lon.start(src_col);
    const auto src_ni = static_cast<std::size_t>(lon.size(src_col));
    AGCM_ASSERT(held.size() == nlines * src_ni);

    // Charge this hop's convolution, then pass the held buffer one hop
    // westward (chunks circulate east-to-west around the ring) before
    // convolving it on the host. The virtual clock sees compute-then-send
    // as in the original code; on the host the chunk moves on without
    // waiting for my arithmetic, so one slow or descheduled rank does not
    // stall the rest of the row at every hop.
    clock.compute(convolution_chunk_flops(static_cast<int>(src_ni),
                                          static_cast<int>(ni)) *
                      static_cast<double>(nlines),
                  clock.profile().loop_efficiency(static_cast<double>(src_ni)));
    if (r + 1 < ncols) {
      row_comm.send<double>((row_comm.rank() - 1 + ncols) % ncols, kRingTag,
                            held);
    }
    for (std::size_t q = 0; q < nlines; ++q) {
      accumulate_chunk(bank().kernel(lines[q].var, lines[q].j),
                       std::span<const double>(held).subspan(q * src_ni, src_ni),
                       src_i0, box().i0, out.subspan(q * ni, ni));
    }

    // recv overwrites the whole buffer.
    if (r + 1 < ncols) {
      held.resize(nlines *
                  static_cast<std::size_t>(lon.size((src_col + 1) % ncols)));
      row_comm.recv<double>((row_comm.rank() + 1) % ncols, kRingTag, held);
    }
  }
}

void ConvolutionFilter::tree(std::span<const LineKey> lines,
                             std::span<double> out) {
  const auto& row_comm = mesh().row_comm();
  auto& clock = row_comm.context().clock();
  const auto& lon = decomp().lon_partition();
  const int ncols = mesh().cols();
  const int nlon = decomp().nlon();
  const std::size_t nlines = lines.size();
  const auto ni = static_cast<std::size_t>(box().ni);
  const auto len = static_cast<std::size_t>(nlon);

  // Tree-based allgather of every line: gather to row root via the binomial
  // tree, then broadcast the assembled buffer back down — "communications
  // in binary trees" (Section 2). Every node ends up with the whole lines
  // and convolves only its own output chunk.
  counts_.resize(static_cast<std::size_t>(ncols));
  for (int c = 0; c < ncols; ++c)
    counts_[static_cast<std::size_t>(c)] =
        static_cast<int>(nlines) * lon.size(c);
  gathered_.resize(nlines * len);
  row_comm.allgatherv_into<double>(mine_, counts_, gathered_);

  // Assemble whole lines from the per-column blocks.
  full_.resize(nlines * len);
  const double* block = gathered_.data();
  for (int c = 0; c < ncols; ++c) {
    const auto w = static_cast<std::size_t>(lon.size(c));
    const auto start = static_cast<std::size_t>(lon.start(c));
    for (std::size_t q = 0; q < nlines; ++q, block += w)
      std::copy(block, block + w, full_.data() + q * len + start);
  }
  clock.memory_traffic(static_cast<double>(full_.size()) * sizeof(double));

  for (std::size_t q = 0; q < nlines; ++q) {
    filter_chunk_convolution(
        std::span<const double>(full_).subspan(q * len, len),
        bank().kernel(lines[q].var, lines[q].j), box().i0,
        static_cast<int>(ni), out.subspan(q * ni, ni));
  }
  clock.compute(convolution_chunk_flops(nlon, static_cast<int>(ni)) *
                    static_cast<double>(nlines),
                clock.profile().loop_efficiency(nlon));
}

}  // namespace agcm::filter
