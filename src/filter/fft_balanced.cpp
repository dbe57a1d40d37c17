#include <cmath>
#include <vector>

#include "fft/plan_cache.hpp"
#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "util/error.hpp"

namespace agcm::filter {

FftBalancedFilter::FftBalancedFilter(const comm::Mesh2D& mesh,
                                     const grid::Decomp2D& decomp,
                                     const FilterBank& bank)
    : PolarFilter(mesh, decomp, bank),
      fft_plan_(fft::shared_plan(decomp.nlon())) {
  // One-time setup (Section 3.3): "some non-trivial set-up code is needed
  // to construct information which guides the data movements... The set-up
  // involves substantial bookkeeping and interprocessor communications."
  const double t0 = mesh.world().now();
  plan_ = BalancedFilterPlan(mesh, decomp, bank);
  // Bookkeeping cost: a few ops per global line on every node.
  mesh.world().charge_flops(20.0 * static_cast<double>(bank.lines().size()));
  // Cross-node plan agreement check (the interprocessor part of set-up):
  // every node must compute the same global schedule.
  double checksum = 0.0;
  for (const LineKey& line : plan_.held_lines())
    checksum += line.var * 1.0e6 + line.j * 1.0e3 + line.k;
  const double total = mesh.world().allreduce_sum(checksum);
  // Every node of a processor row holds the same held_lines set, so the
  // global sum sees each line once per mesh column.
  double expected = 0.0;
  for (const LineKey& line : bank.lines())
    expected += line.var * 1.0e6 + line.j * 1.0e3 + line.k;
  expected *= static_cast<double>(mesh.cols());
  if (std::abs(total - expected) > 1.0e-6 * std::max(1.0, expected)) {
    throw CommError("load-balanced filter plan disagrees across nodes");
  }
  setup_cost_sec_ = mesh.world().now() - t0;
}

void FftBalancedFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  auto& clock = mesh().world().context().clock();

  // Figure 2: redistribute data rows along the latitudinal direction so
  // every processor row holds ~sum(R_j)/M lines. All staging buffers are
  // growth-only members and both movements run on the pooled zero-copy
  // transport: repeat applications never allocate.
  my_chunks_.resize(plan_.my_chunk_elems());
  extract_chunks_into(fields, box(), plan_.my_lines(), my_chunks_);
  held_.resize(plan_.held_chunk_elems());
  plan_.redistribute_into(mesh(), my_chunks_, held_);

  // Figure 3: transpose within the processor row, filter whole lines
  // locally, transpose back.
  full_.resize(plan_.row_plan().line_elems());
  plan_.row_plan().to_lines_into(mesh(), held_, full_);
  const auto& owned = plan_.row_plan().owned_lines();
  filter_owned_lines_fft(*fft_plan_, bank(), owned, full_, clock);

  plan_.row_plan().to_chunks_into(mesh(), full_, held_);

  // Inverse of Figure 2: restore the original data layout.
  plan_.restore_into(mesh(), held_, my_chunks_);
  write_chunks(fields, box(), plan_.my_lines(), my_chunks_);
}

}  // namespace agcm::filter
