#include <vector>

#include "fft/plan_cache.hpp"
#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace agcm::filter {

void filter_owned_lines_fft(const fft::FftPlan& plan, const FilterBank& bank,
                            std::span<const LineKey> owned,
                            std::span<double> full_lines,
                            simnet::VirtualClock& clock) {
  const auto nlon = static_cast<std::size_t>(plan.size());
  AGCM_ASSERT(full_lines.size() == owned.size() * nlon);

  // Host work: the batched driver pair-packs lines that share a response
  // table row, so most pairs take the cheap same-response spectral multiply.
  filter_lines_fft(plan, bank, owned, full_lines);

  // Virtual-clock charging: FROZEN to the seed accounting — the batched
  // schedule performs exactly floor(n/2) pair transforms plus (n%2) single
  // transforms, so the accumulation below (same float addition order as the
  // seed's pair/single loop) is charged bitwise-identically regardless of
  // how the host-side execution is organised.
  std::size_t p = 0;
  double flops = 0.0;
  for (; p + 1 < owned.size(); p += 2) {
    flops += fft_filter_pair_flops(plan.size());
  }
  if (p < owned.size()) {
    flops += fft_filter_flops(plan.size());
  }
  clock.compute(flops, clock.profile().loop_efficiency(plan.size()));
}

FftTransposeFilter::FftTransposeFilter(const comm::Mesh2D& mesh,
                                       const grid::Decomp2D& decomp,
                                       const FilterBank& bank)
    : PolarFilter(mesh, decomp, bank),
      fft_plan_(fft::shared_plan(decomp.nlon())),
      plan_(mesh, decomp, local_lines()) {}

void FftTransposeFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  const auto& lines = plan_.lines();
  if (lines.empty()) return;  // nothing to filter in this latitude band
  auto& clock = mesh().world().context().clock();

  // All weakly filtered variables are filtered concurrently, as are all
  // strongly filtered ones (Section 3.3): one transpose moves every line.
  // Scratch is growth-only member storage and the transposes run on the
  // pooled zero-copy transport, so repeat applications never allocate.
  // Sub-spans split the already-traced "filter.fft-transpose" phase into
  // its communication half ("filter.transpose": the forward and backward
  // line transposes, each O(P) per rank) and its compute half
  // ("filter.fft-lines": the batched spectral filtering, O(n log n) per
  // line) — the two series the scaling-model sweep fits independently.
  simnet::RankContext& tctx = mesh().world().context();
  chunks_.resize(plan_.chunk_elems());
  extract_chunks_into(fields, box(), lines, chunks_);
  full_.resize(plan_.line_elems());
  {
    AGCM_TRACE_SPAN("filter.transpose", tctx);
    plan_.to_lines_into(mesh(), chunks_, full_);
  }
  {
    AGCM_TRACE_SPAN("filter.fft-lines", tctx);
    filter_owned_lines_fft(*fft_plan_, bank(), plan_.owned_lines(), full_,
                           clock);
  }
  {
    AGCM_TRACE_SPAN("filter.transpose", tctx);
    plan_.to_chunks_into(mesh(), full_, chunks_);
  }
  write_chunks(fields, box(), lines, chunks_);
}

}  // namespace agcm::filter
