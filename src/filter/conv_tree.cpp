#include <vector>

#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "util/error.hpp"

namespace agcm::filter {

void ConvolutionTreeFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  for (int v = 0; v < bank().nvars(); ++v) {
    filter_variable(*fields[static_cast<std::size_t>(v)], v);
  }
}

void ConvolutionTreeFilter::filter_variable(grid::Array3D<double>& field,
                                            int v) {
  const auto rows = local_rows(v);
  const auto& row_comm = mesh().row_comm();
  auto& clock = row_comm.context().clock();
  const int ncols = mesh().cols();
  const int nlev = bank().grid().nlev();
  const int nlon = decomp().nlon();
  const auto nlines = rows.size() * static_cast<std::size_t>(nlev);
  if (nlines == 0) return;

  // var index 0: extract/write below see a single-field span.
  std::vector<LineKey> lines;
  lines.reserve(nlines);
  for (int j : rows)
    for (int k = 0; k < nlev; ++k) lines.push_back({0, j, k});

  grid::Array3D<double>* field_ptr = &field;
  std::vector<double> my_chunks(nlines * static_cast<std::size_t>(box().ni));
  extract_chunks_into(std::span<grid::Array3D<double>* const>(&field_ptr, 1),
                      box(), lines, my_chunks);

  // Tree-based allgather of every line: gather to row root via the binomial
  // tree, then broadcast the assembled buffer back down — "communications
  // in binary trees" (Section 2). Every node ends up with the whole lines
  // and convolves only its own output chunk.
  std::vector<int> counts(static_cast<std::size_t>(ncols));
  for (int c = 0; c < ncols; ++c)
    counts[static_cast<std::size_t>(c)] =
        static_cast<int>(nlines) * decomp().lon_partition().size(c);
  const std::vector<double> gathered =
      row_comm.allgatherv<double>(my_chunks, counts);

  // Assemble whole lines from the per-column blocks.
  std::vector<double> full(nlines * static_cast<std::size_t>(nlon));
  std::size_t pos = 0;
  for (int c = 0; c < ncols; ++c) {
    const auto w = static_cast<std::size_t>(decomp().lon_partition().size(c));
    const auto start = static_cast<std::size_t>(decomp().lon_partition().start(c));
    for (std::size_t q = 0; q < nlines; ++q) {
      std::copy(gathered.begin() + static_cast<std::ptrdiff_t>(pos),
                gathered.begin() + static_cast<std::ptrdiff_t>(pos + w),
                full.begin() + static_cast<std::ptrdiff_t>(
                                   q * static_cast<std::size_t>(nlon) + start));
      pos += w;
    }
  }
  clock.memory_traffic(static_cast<double>(full.size()) * sizeof(double));

  // Convolve my output chunk of every line.
  const auto ni = static_cast<std::size_t>(box().ni);
  std::vector<double> out(nlines * ni);
  for (std::size_t q = 0; q < nlines; ++q) {
    const LineKey& line = lines[q];
    const auto kernel = bank().kernel(v, line.j);
    filter_chunk_convolution(
        std::span<const double>(full.data() + q * static_cast<std::size_t>(nlon),
                                static_cast<std::size_t>(nlon)),
        kernel, box().i0, static_cast<int>(ni),
        std::span<double>(out.data() + q * ni, ni));
  }
  clock.compute(convolution_chunk_flops(nlon, static_cast<int>(ni)) *
                    static_cast<double>(nlines),
                clock.profile().loop_efficiency(nlon));

  write_chunks(std::span<grid::Array3D<double>* const>(&field_ptr, 1), box(),
               lines, out);
}

}  // namespace agcm::filter
