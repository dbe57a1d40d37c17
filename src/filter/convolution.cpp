// The original AGCM's physical-space convolution filter (variants.hpp):
// convolution-ring and convolution-tree share one apply path and differ
// only in how each node comes to see the other columns' chunks.
#include <algorithm>
#include <string>
#include <vector>

#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "kernels/simd/dispatch.hpp"
#include "util/error.hpp"

namespace agcm::filter {

namespace {

constexpr int kRingTag = 310;

}  // namespace

ConvolutionFilter::ConvolutionFilter(const comm::Mesh2D& mesh,
                                     const grid::Decomp2D& decomp,
                                     const FilterBank& bank,
                                     FilterAlgorithm algorithm)
    : PolarFilter(mesh, decomp, bank),
      algorithm_(algorithm),
      lines_(local_lines()),
      kext_(static_cast<std::size_t>(decomp.nlon() + box().ni - 1)) {
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
  const auto nlon = static_cast<std::size_t>(decomp().nlon());
  const auto conv_chunk = simd::ops().conv_chunk;

  // `held` starts as my own chunks; after r hops westward it holds the
  // chunks originally owned by column (mycol + r) mod ncols.
  Lines& held = mine_;
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
    // Each output adds the chunk's products in ascending source order from
    // a +0.0 start, as one dot product per output would, then lands in
    // `out` with one add; the kernel runs outputs side by side
    // (kernels/simd/dispatch.hpp, docs/filter.md). Lines are (var, j, k)
    // sorted, so a run of layers shares one kernel and one extension.
    int lag0 = box().i0 - src_i0;  // the lag of output 0 from source 0
    if (lag0 < 0) lag0 += static_cast<int>(nlon);
    const double* extended = nullptr;
    for (std::size_t q = 0; q < nlines; ++q) {
      const auto kernel = bank().kernel(lines[q].var, lines[q].j);
      if (kernel.data() != extended) {
        std::copy(kernel.begin(), kernel.end(), kext_.begin());
        std::copy_n(kernel.begin(), ni - 1, kext_.begin() + nlon);
        extended = kernel.data();
      }
      conv_chunk(ni, src_ni, nlon, static_cast<std::size_t>(lag0),
                 kext_.data(), held.data() + q * src_ni, out.data() + q * ni);
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
