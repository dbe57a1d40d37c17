#include <algorithm>
#include <vector>

#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "util/error.hpp"

namespace agcm::filter {

namespace {
constexpr int kRingTag = 310;
}

void ConvolutionRingFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  // The original AGCM filtered "one variable at a time" (Section 3.3); the
  // serialisation is part of what the paper's new module removed, so we
  // reproduce it faithfully here.
  for (int v = 0; v < bank().nvars(); ++v) {
    filter_variable(*fields[static_cast<std::size_t>(v)], v);
  }
}

void ConvolutionRingFilter::filter_variable(grid::Array3D<double>& field,
                                            int v) {
  const auto rows = local_rows(v);
  const auto& row_comm = mesh().row_comm();
  auto& clock = row_comm.context().clock();
  const int ncols = mesh().cols();
  const int nlev = bank().grid().nlev();
  const int nlon = decomp().nlon();
  const auto nlines = rows.size() * static_cast<std::size_t>(nlev);
  if (nlines == 0) return;  // this processor row has no filtering work

  // Line order for this variable: (j asc, k asc). The var index is 0
  // because extract/write below see a single-field span.
  std::vector<LineKey> lines;
  lines.reserve(nlines);
  for (int j : rows)
    for (int k = 0; k < nlev; ++k) lines.push_back({0, j, k});

  // Accumulators for my output chunks.
  const auto ni = static_cast<std::size_t>(box().ni);
  std::vector<double> out(nlines * ni, 0.0);

  // Rotating buffer starts as my own chunks; after r hops westward it holds
  // the chunks originally owned by column (mycol + r) mod ncols.
  grid::Array3D<double>* field_ptr = &field;
  std::vector<double> held(nlines * ni);
  extract_chunks_into(std::span<grid::Array3D<double>* const>(&field_ptr, 1),
                      box(), lines, held);

  for (int r = 0; r < ncols; ++r) {
    const int src_col = (mesh().coord().col + r) % ncols;
    const int src_i0 = decomp().lon_partition().start(src_col);
    const int src_ni = decomp().lon_partition().size(src_col);
    AGCM_ASSERT(held.size() == nlines * static_cast<std::size_t>(src_ni));

    // Accumulate this chunk's contribution to my outputs:
    //   out[i] += sum_{g in held range} kernel[(i - g) mod nlon] * held[g].
    for (std::size_t q = 0; q < nlines; ++q) {
      const LineKey& line = lines[q];
      const auto kernel = bank().kernel(v, line.j);
      const double* src = held.data() + q * static_cast<std::size_t>(src_ni);
      double* dst = out.data() + q * ni;
      for (std::size_t c = 0; c < ni; ++c) {
        const int i = box().i0 + static_cast<int>(c);
        double acc = 0.0;
        for (int g = 0; g < src_ni; ++g) {
          int lag = i - (src_i0 + g);
          lag %= nlon;
          if (lag < 0) lag += nlon;
          acc += kernel[static_cast<std::size_t>(lag)] * src[g];
        }
        dst[c] += acc;
      }
    }
    clock.compute(convolution_chunk_flops(src_ni, static_cast<int>(ni)) *
                      static_cast<double>(nlines),
                  clock.profile().loop_efficiency(static_cast<double>(src_ni)));

    // Rotate: pass the held buffer one hop westward so chunks circulate
    // east-to-west around the ring.
    if (r + 1 < ncols) {
      row_comm.send<double>((row_comm.rank() - 1 + ncols) % ncols, kRingTag,
                            held);
      const int next_src = (mesh().coord().col + r + 1) % ncols;
      held.assign(nlines * static_cast<std::size_t>(
                               decomp().lon_partition().size(next_src)),
                  0.0);
      row_comm.recv<double>((row_comm.rank() + 1) % ncols, kRingTag, held);
    }
  }

  write_chunks(std::span<grid::Array3D<double>* const>(&field_ptr, 1), box(),
               lines, out);
}

}  // namespace agcm::filter
