#include <algorithm>
#include <cstring>

#include "filter/parallel.hpp"

#include "filter/implicit_zonal.hpp"
#include "filter/variants.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace agcm::filter {

std::string_view algorithm_name(FilterAlgorithm algorithm) {
  switch (algorithm) {
    case FilterAlgorithm::kConvolutionRing: return "convolution-ring";
    case FilterAlgorithm::kConvolutionTree: return "convolution-tree";
    case FilterAlgorithm::kFftTranspose:    return "fft-transpose";
    case FilterAlgorithm::kFftBalanced:     return "fft-load-balanced";
    case FilterAlgorithm::kConvolutionPartitioned:
      return "convolution-partitioned";
    case FilterAlgorithm::kImplicitZonal:   return "implicit-zonal";
  }
  return "unknown";
}

PolarFilter::PolarFilter(const comm::Mesh2D& mesh,
                         const grid::Decomp2D& decomp, const FilterBank& bank)
    : mesh_(&mesh), decomp_(&decomp), bank_(&bank),
      box_(decomp.box(mesh.coord())) {
  check_config(decomp.nlon() == bank.grid().nlon() &&
                   decomp.nlat() == bank.grid().nlat(),
               "decomposition does not match the filter bank's grid");
}

void PolarFilter::apply(std::span<grid::Array3D<double>* const> fields) {
  if (!trace::enabled()) {
    apply_impl(fields);
    return;
  }
  simnet::RankContext& ctx = mesh_->world().context();
  std::string span_name = "filter.";
  span_name += name();
  trace::ScopedSpan span(span_name, ctx.clock(), ctx.rank());
  apply_impl(fields);
}

std::vector<LineKey> PolarFilter::local_lines() const {
  // Same (var, j, k) output order as scanning bank_->lines(), but via the
  // precomputed per-variable slices: each slice is (j, k)-sorted, so the
  // rows inside this node's latitude band form one contiguous run found by
  // binary search instead of a scan over every global line.
  std::vector<LineKey> out;
  const int j_end = box_.j0 + box_.nj;
  for (int v = 0; v < bank_->nvars(); ++v) {
    const std::vector<LineKey>& lv = bank_->lines_of(v);
    const auto lo = std::lower_bound(
        lv.begin(), lv.end(), box_.j0,
        [](const LineKey& line, int j) { return line.j < j; });
    const auto hi = std::lower_bound(
        lo, lv.end(), j_end,
        [](const LineKey& line, int j) { return line.j < j; });
    out.insert(out.end(), lo, hi);
  }
  return out;
}

std::span<double> PolarFilter::chunk(grid::Array3D<double>& field,
                                     const grid::LocalBox& box, int gj,
                                     int k) {
  AGCM_ASSERT(gj >= box.j0 && gj < box.j0 + box.nj);
  return field.row(gj - box.j0, k);
}

void PolarFilter::validate_fields(
    std::span<grid::Array3D<double>* const> fields) const {
  check_config(static_cast<int>(fields.size()) == bank_->nvars(),
               "apply() needs one field per registered variable");
  for (const auto* f : fields) {
    check_config(f != nullptr, "null field");
    check_config(f->ni() == box_.ni && f->nj() == box_.nj &&
                     f->nk() == bank_->grid().nlev(),
                 "field block shape does not match the decomposition");
  }
}

void extract_chunks_into(std::span<grid::Array3D<double>* const> fields,
                         const grid::LocalBox& box,
                         std::span<const LineKey> lines,
                         std::span<double> chunks) {
  AGCM_ASSERT(chunks.size() == lines.size() * static_cast<std::size_t>(box.ni));
  std::size_t pos = 0;
  for (const LineKey& line : lines) {
    const auto row =
        fields[static_cast<std::size_t>(line.var)]->row(line.j - box.j0, line.k);
    std::memcpy(chunks.data() + pos, row.data(), row.size_bytes());
    pos += row.size();
  }
}

void write_chunks(std::span<grid::Array3D<double>* const> fields,
                  const grid::LocalBox& box, std::span<const LineKey> lines,
                  std::span<const double> chunks) {
  AGCM_ASSERT(chunks.size() == lines.size() * static_cast<std::size_t>(box.ni));
  std::size_t pos = 0;
  for (const LineKey& line : lines) {
    auto row =
        fields[static_cast<std::size_t>(line.var)]->row(line.j - box.j0, line.k);
    std::copy(chunks.begin() + static_cast<std::ptrdiff_t>(pos),
              chunks.begin() + static_cast<std::ptrdiff_t>(pos + row.size()),
              row.begin());
    pos += row.size();
  }
}

std::unique_ptr<PolarFilter> make_filter(FilterAlgorithm algorithm,
                                         const comm::Mesh2D& mesh,
                                         const grid::Decomp2D& decomp,
                                         const FilterBank& bank) {
  switch (algorithm) {
    case FilterAlgorithm::kConvolutionRing:
    case FilterAlgorithm::kConvolutionTree:
      return std::make_unique<ConvolutionFilter>(mesh, decomp, bank,
                                                 algorithm);
    case FilterAlgorithm::kFftTranspose:
    case FilterAlgorithm::kFftBalanced:
    case FilterAlgorithm::kConvolutionPartitioned:
      return std::make_unique<TransposeFilter>(mesh, decomp, bank, algorithm);
    case FilterAlgorithm::kImplicitZonal:
      return std::make_unique<ImplicitZonalFilter>(mesh, decomp, bank);
  }
  throw ConfigError("unknown filter algorithm");
}

}  // namespace agcm::filter
