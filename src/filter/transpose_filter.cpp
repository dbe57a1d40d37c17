// The transpose-filter pipeline (variants.hpp): fft-transpose,
// fft-load-balanced and convolution-partitioned share one apply path and
// differ only in the optional Figure-2 stage and the line engine.
#include <algorithm>
#include <cmath>
#include <string>

#include "fft/plan_cache.hpp"
#include "filter/partition.hpp"
#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace agcm::filter {

namespace {

/// Charges the virtual clock for `lines` filtered whole lines of length
/// `nlon`, of which the engine ran `pairs` as pairs and the rest single.
/// The accumulation is FROZEN to the seed accounting: repeated addition,
/// pairs first, then singles, then one compute charge. For the FFT engine
/// (floor(n/2) pairs) the charge is bitwise what the seed charged however
/// the host-side execution is organised.
void charge_lines(simnet::VirtualClock& clock, int nlon, std::size_t lines,
                  int pairs, double pair_flops, double single_flops) {
  const std::size_t singles = lines - 2 * static_cast<std::size_t>(pairs);
  double flops = 0.0;
  for (int p = 0; p < pairs; ++p) flops += pair_flops;
  for (std::size_t s = 0; s < singles; ++s) flops += single_flops;
  clock.compute(flops, clock.profile().loop_efficiency(nlon));
}

/// One-time set-up of the Figure-2 stage (Section 3.3): "some non-trivial
/// set-up code is needed to construct information which guides the data
/// movements... The set-up involves substantial bookkeeping and
/// interprocessor communications." Collective over the mesh.
BalancedFilterPlan balanced_setup(const comm::Mesh2D& mesh,
                                  const grid::Decomp2D& decomp,
                                  const FilterBank& bank) {
  BalancedFilterPlan plan(mesh, decomp, bank);
  // Bookkeeping cost: a few ops per global line on every node.
  mesh.world().charge_flops(20.0 * static_cast<double>(bank.lines().size()));
  // Cross-node plan agreement check (the interprocessor part of set-up):
  // every node must compute the same global schedule.
  double checksum = 0.0;
  for (const LineKey& line : plan.held_lines())
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
  return plan;
}

}  // namespace

TransposeFilter::TransposeFilter(const comm::Mesh2D& mesh,
                                 const grid::Decomp2D& decomp,
                                 const FilterBank& bank,
                                 FilterAlgorithm algorithm)
    : PolarFilter(mesh, decomp, bank), algorithm_(algorithm) {
  const int nlon = decomp.nlon();
  switch (algorithm) {
    case FilterAlgorithm::kFftBalanced:
      balance_.emplace(balanced_setup(mesh, decomp, bank));
      [[fallthrough]];
    case FilterAlgorithm::kFftTranspose:
      fft_plan_ = fft::shared_plan(nlon);
      pair_flops_ = fft_filter_pair_flops(nlon);
      single_flops_ = fft_filter_flops(nlon);
      break;
    case FilterAlgorithm::kConvolutionPartitioned: {
      // The partitioned backend's own (non-frozen) accounting: every line
      // shares one plan geometry, nlon taps on an nlon-sample circle.
      const PartitionPlan plan = PartitionPlan::make(nlon, nlon);
      pair_flops_ = plan.pair_flops();
      single_flops_ = plan.flops();
      break;
    }
    default:
      throw ConfigError("not a transpose-filter algorithm: " +
                        std::string(algorithm_name(algorithm)));
  }
  transpose_ = RowTransposePlan(
      mesh, decomp, balance_ ? balance_->held_lines() : local_lines());
  if (!fft_plan_) {
    // Pre-build the partition spectra of every row this rank will stream,
    // so apply() never pays the lazy transform cost and stays
    // allocation-free once the workspaces are warm.
    for (const LineKey& line : transpose_.owned_lines())
      (void)this->bank().partition(line.var, line.j);
  }
}

void TransposeFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  // Without the Figure-2 stage a latitude band with no filtered lines has
  // nothing to do; with it, the band still takes part in the collective
  // column exchange.
  if (!balance_ && transpose_.lines().empty()) return;
  simnet::RankContext& ctx = mesh().world().context();

  // Scratch is growth-only member storage and every movement runs on the
  // pooled zero-copy transport, so repeat applications never allocate.
  // Sub-spans split the traced "filter.<name>" phase into its
  // communication half ("filter.transpose": the forward and backward line
  // transposes, each O(P) per rank) and its compute half (the engine span:
  // O(n log n) per line) — the series the scaling-model sweep fits.
  const std::vector<LineKey>& mine =
      balance_ ? balance_->my_lines() : transpose_.lines();
  chunks_.resize(mine.size() * static_cast<std::size_t>(box().ni));
  extract_chunks_into(fields, box(), mine, chunks_);
  std::span<double> row_chunks = chunks_;
  if (balance_) {
    // Figure 2: every processor row then holds ~sum(R_j)/M lines.
    held_.resize(balance_->held_chunk_elems());
    balance_->redistribute_into(mesh(), chunks_, held_);
    row_chunks = held_;
  }
  full_.resize(transpose_.line_elems());
  {
    AGCM_TRACE_SPAN("filter.transpose", ctx);
    transpose_.to_lines_into(mesh(), row_chunks, full_);
  }
  {
    AGCM_TRACE_SPAN(fft_plan_ ? "filter.fft-lines" : "filter.partition-lines",
                    ctx);
    const std::vector<LineKey>& owned = transpose_.owned_lines();
    const int pairs = fft_plan_
                          ? filter_lines_fft(*fft_plan_, bank(), owned, full_)
                          : filter_lines_partition(bank(), owned, full_);
    charge_lines(ctx.clock(), decomp().nlon(), owned.size(), pairs,
                 pair_flops_, single_flops_);
  }
  {
    AGCM_TRACE_SPAN("filter.transpose", ctx);
    transpose_.to_chunks_into(mesh(), full_, row_chunks);
  }
  // Inverse of Figure 2: restore the original data layout.
  if (balance_) balance_->restore_into(mesh(), held_, chunks_);
  write_chunks(fields, box(), mine, chunks_);
}

}  // namespace agcm::filter
