// SIMD dispatch backend: per-tier host speed and cross-tier correctness
// (docs/kernels.md, "Runtime SIMD dispatch").
//
// For every tier the host can run (scalar always; AVX2/AVX-512 when built
// and supported), this bench forces the dispatch table to that tier and
// measures the six kernel families against the forced-scalar engine —
// the PR 4 baseline the intrinsics are supposed to beat:
//
//  * advection — gated on the row-sweep composite (flux_row +
//    advect_update_row over an L2-resident tile, 64-byte-aligned rows like
//    production Array3D storage): that is the dispatched kernel code
//    itself. The full advect_tracers_optimized engine (paper grid
//    144x90x9, four tracers) is also timed, informationally — at full-grid
//    working sets it is bandwidth-bound and the ISA matters less;
//  * pointwise — the Section 3.4 operator at an L1-resident shape with
//    aligned buffers (n=1152, m=144; larger shapes are bandwidth-bound and
//    would measure the memory bus, not the ISA — see docs/kernels.md);
//  * stencil   — the separate-fields Laplace engine (informational);
//  * daxpy     — the miniblas dispatched form (informational);
//  * conv chunk — one node's table10-conv ring filter: 4 hops of 15
//    layers, 36 outputs from 36 sources of a 144-point kernel
//    (informational);
//  * longwave lanes, thomas lanes — one table10-conv rank's column physics
//    kernels: 800 columns of 15 levels in batches of the tier's
//    column_lanes, each batch a level-major panel (informational).
//
// Every trial restarts from a fresh copy of the same initial state
// (best-of-N min time, the bench_kernel_engine convention).
//
// Acceptance gates (exit 1 on failure, recorded in the BENCH JSON):
//   * every family (advection, pointwise, stencil, daxpy, conv chunk,
//     longwave lanes, thomas lanes) BITWISE identical to its scalar reference on every checked tier, the
//     forced-scalar tier included;
//   * when the active tier is a SIMD tier: advection and pointwise at the
//     active tier >= 1.5x the forced-scalar engine. Skipped (with a note)
//     when the resolved tier is scalar — e.g. the AGCM_SIMD=scalar CI leg.
//
// `--check-only` skips all timing and emits only deterministic fields so
// CI's determinism fence can byte-compare two runs on the same host.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynamics/advection.hpp"
#include "dynamics/advection_seed_ref.hpp"
#include "dynamics/state.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/stencil_kernels.hpp"
#include "singlenode/miniblas.hpp"
#include "singlenode/pointwise.hpp"
#include "singlenode/stencil.hpp"
#include "util/aligned.hpp"
#include "util/table.hpp"

namespace {

using agcm::Table;
using agcm::bench::Stopwatch;
using agcm::grid::Array3D;
namespace simd = agcm::simd;

/// 64-byte-aligned storage, the production Array3D layout — unaligned
/// 256/512-bit accesses split across cache lines cost the SIMD tiers most
/// of their ALU advantage on store-bound kernels.
template <class T>
using AlignedVec = std::vector<T, agcm::util::AlignedAllocator<T, 64>>;

bool g_check_only = false;

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Deterministic dyadic test data (the dispatch self-check's LCG), so every
/// run — and every tier — sees identical input bits.
void fill_det(std::span<double> v, unsigned seed, double base) {
  unsigned s = seed;
  for (double& x : v) {
    s = s * 1664525u + 1013904223u;
    x = base + (static_cast<double>(s >> 8) * 0x1p-24 - 0.5) * 0.125;
  }
}

/// Forces `tier` for the duration of a scope.
class ForcedTier {
 public:
  explicit ForcedTier(simd::Tier tier) { simd::force_tier(tier); }
  ~ForcedTier() { simd::reset_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

struct PathResult {
  double seconds = 0.0;        ///< best timed block (0 in check-only)
  std::vector<double> fields;  ///< final bytes, for the bitwise compare
};

// --- advection (production engine, forced tier) -----------------------------

PathResult run_advection(simd::Tier tier, bool seed_ref, int reps,
                         int trials) {
  using namespace agcm::dynamics;
  const agcm::grid::LatLonGrid grid = agcm::grid::LatLonGrid::paper_9layer();
  const agcm::grid::LocalBox box{0, grid.nlon(), 0, grid.nlat()};
  const Metrics metrics = Metrics::build(grid, box);

  State init(box, grid.nlev());
  initialize_state(init, grid, box, 1996);
  const Array3D<double> h_new = init.h;

  const ForcedTier forced(tier);
  PathResult out;
  State state;
  Array3D<double> t3, t4;
  for (int t = 0; t < trials; ++t) {
    state = init;  // identical work every trial
    t3 = init.theta;  // four tracers: the fused update pass dominates,
    t4 = init.q;      // as it does under a production tracer load
    Array3D<double>* tracers[] = {&state.theta, &state.q, &t3, &t4};
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      if (seed_ref) {
        advect_tracers_optimized_seed_ref(grid, box, metrics, state.h, h_new,
                                          state.u, state.v, tracers, 450.0);
      } else {
        advect_tracers_optimized(grid, box, metrics, state.h, h_new, state.u,
                                 state.v, tracers, 450.0);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  for (const Array3D<double>* f : {&state.theta, &state.q, &t3, &t4}) {
    const auto raw = f->raw();
    out.fields.insert(out.fields.end(), raw.begin(), raw.end());
  }
  return out;
}

// --- advection row sweep (the dispatched kernels themselves) ----------------

/// The engine's inner sweep over an L2-resident tile: per row one y-flux,
/// one x-flux (shifted-pointer form), then four tracer updates. Rows are
/// 64-byte aligned (stride 160, interior at +8 doubles). This is the gate
/// shape: same kernel code as production, small enough that the ISA — not
/// the memory bus — is what's measured.
PathResult run_advect_rows(simd::Tier tier, int reps, int trials) {
  constexpr int kNi = 144, kNj = 16, kGhost = 2;
  constexpr int kStride = 160;   // kNi + 16: keeps row starts aligned
  constexpr int kInterior = 8;   // left pad (>= ghost), 64-byte multiple
  constexpr int kTracers = 4;
  const std::size_t field = static_cast<std::size_t>(kStride) *
                            (kNj + 2 * kGhost + 1);
  const std::size_t base =
      static_cast<std::size_t>(kGhost) * kStride + kInterior;
  auto row = [&](AlignedVec<double>& f, int j) {
    return f.data() + base + static_cast<std::size_t>(j) * kStride;
  };
  AlignedVec<double> h(field), hn(field), u(field), v(field), fx(field),
      fy(field);
  std::vector<AlignedVec<double>> c(kTracers, AlignedVec<double>(field));
  std::vector<AlignedVec<double>> up(kTracers, AlignedVec<double>(field));
  fill_det(h, 131u, 1.0);
  fill_det(hn, 137u, 1.0);
  fill_det(u, 139u, 0.0);
  fill_det(v, 149u, 0.0);
  for (int t = 0; t < kTracers; ++t)
    fill_det(c[static_cast<std::size_t>(t)], 151u + static_cast<unsigned>(t),
             1.0);

  const ForcedTier forced(tier);
  const simd::KernelOps& ops = simd::ops();
  PathResult out;
  for (int t = 0; t < trials; ++t) {
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (int j = -1; j < kNj; ++j)
        ops.flux_row(kNi, 0.5, row(v, j), row(h, j), row(h, j + 1),
                     row(fy, j));
      for (int j = 0; j < kNj; ++j)
        ops.flux_row(kNi + 1, 0.75, row(u, j) - 1, row(h, j) - 1, row(h, j),
                     row(fx, j) - 1);
      for (int tr = 0; tr < kTracers; ++tr) {
        const auto utr = static_cast<std::size_t>(tr);
        for (int j = 0; j < kNj; ++j)
          ops.advect_update_row(kNi, 0.01, row(fx, j), row(fy, j),
                                row(fy, j - 1), row(c[utr], j),
                                row(c[utr], j - 1), row(c[utr], j + 1),
                                row(h, j), row(hn, j), row(up[utr], j));
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  for (const AlignedVec<double>& f : up)
    out.fields.insert(out.fields.end(), f.begin(), f.end());
  return out;
}

// --- pointwise (Section 3.4 operator, L1-resident aligned shape) ------------

PathResult run_pointwise(simd::Tier tier, bool dispatch, int reps,
                         int trials) {
  using namespace agcm::singlenode;
  constexpr std::size_t kN = 1152, kM = 144;
  AlignedVec<double> a(kN), b(kM), out_v(kN);
  fill_det(a, 11u, 1.0);
  fill_det(b, 23u, 2.0);

  const ForcedTier forced(tier);
  PathResult out;
  for (int t = 0; t < trials; ++t) {
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      if (dispatch) {
        pointwise_multiply_dispatch(a, b, out_v);
      } else {
        pointwise_multiply_unrolled(a, b, out_v);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  out.fields.assign(out_v.begin(), out_v.end());
  return out;
}

// --- stencil (separate-fields Laplace engine) -------------------------------

PathResult run_stencil(simd::Tier tier, bool engine, int reps, int trials) {
  using namespace agcm::singlenode;
  SeparateFields sep(8, 32);  // the paper's 32^3 experiment, m=8
  const ForcedTier forced(tier);
  PathResult out;
  std::vector<double> r;
  for (int t = 0; t < trials; ++t) {
    const Stopwatch sw;
    for (int rep = 0; rep < reps; ++rep) {
      if (engine) {
        agcm::kernels::laplace_sum_separate_engine(sep, r);
      } else {
        laplace_sum_separate(sep, r);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  out.fields = r;
  return out;
}

// --- daxpy -----------------------------------------------------------------

PathResult run_daxpy(simd::Tier tier, bool dispatch, int reps, int trials) {
  using namespace agcm::singlenode;
  constexpr std::size_t kN = 8192;
  std::vector<double> x(kN), y0(kN), y(kN);
  fill_det(x, 31u, 1.0);
  fill_det(y0, 47u, 2.0);

  const ForcedTier forced(tier);
  PathResult out;
  for (int t = 0; t < trials; ++t) {
    y = y0;  // identical work every trial
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      if (dispatch) {
        daxpy_dispatch(0x1.8p-10, x, y);
      } else {
        daxpy(0x1.8p-10, x, y);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  out.fields = y;
  return out;
}

// --- ring convolution chunk -------------------------------------------------

/// One table10-conv ring filter on one node: nlon 144 over 4 columns, so 36
/// outputs per held chunk of 36 sources, 4 hops (lags 0, 108, 72, 36) of 15
/// layers that share one kernel, accumulating into the same output chunks.
PathResult run_conv(simd::Tier tier, int reps, int trials) {
  constexpr std::size_t kN = 144, kWidth = 36, kLines = 15, kHops = 4;
  std::vector<double> kernel(kN), held(kHops * kLines * kWidth),
      kext(kN + kWidth - 1), out_v(kLines * kWidth);
  fill_det(kernel, 53u, 1.0);
  for (double& k : kernel) k /= 3.0;  // products round: add order shows
  fill_det(held, 59u, 1.0);
  for (std::size_t i = 0; i < kext.size(); ++i) kext[i] = kernel[i % kN];

  const ForcedTier forced(tier);
  const simd::KernelOps& ops = simd::ops();
  PathResult out;
  for (int t = 0; t < trials; ++t) {
    std::fill(out_v.begin(), out_v.end(), 0.0);  // identical work every trial
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t hop = 0; hop < kHops; ++hop) {
        const std::size_t lag0 = (kN - hop * kWidth) % kN;
        for (std::size_t q = 0; q < kLines; ++q)
          ops.conv_chunk(kWidth, kWidth, kN, lag0, kext.data(),
                         held.data() + (hop * kLines + q) * kWidth,
                         out_v.data() + q * kWidth);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  out.fields = out_v;
  return out;
}

// --- column physics lanes ---------------------------------------------------

/// One table10-conv rank's columns (800 of 15 levels) through
/// longwave_lanes or thomas_lanes, batch by batch as physics::step_columns
/// runs them: each batch of the tier's column_lanes columns (the last one
/// possibly short) is a level-major panel of its own. The result is
/// returned column-major, so tiers with different batch widths compare.
PathResult run_column_lanes(simd::Tier tier, bool thomas, int reps,
                            int trials) {
  constexpr std::size_t kColumns = 800, kLev = 15;
  constexpr double kDiff = 0.08;
  std::vector<double> columns(kColumns * kLev);
  fill_det(columns, 157u, 1.0);
  std::vector<double> emis(kLev), a(kLev, -kDiff), cp(kLev), denom(kLev);
  for (std::size_t d = 0; d < kLev; ++d) emis[d] = 0.015 / (1.0 + d);
  denom[0] = 1.0 + kDiff;
  cp[0] = -kDiff / denom[0];
  for (std::size_t k = 1; k < kLev; ++k) {
    denom[k] = (k + 1 == kLev ? 1.0 + kDiff : 1.0 + 2.0 * kDiff) -
               a[k] * cp[k - 1];
    cp[k] = -kDiff / denom[k];
  }

  const ForcedTier forced(tier);
  const simd::KernelOps& ops = simd::ops();
  const std::size_t w = ops.column_lanes;
  // The batch from column b holds lanes(b) columns at panels[b kLev ...].
  auto lanes = [&](std::size_t b) { return std::min(w, kColumns - b); };
  auto at = [&](std::size_t c, std::size_t k) {
    const std::size_t b = c / w * w;
    return b * kLev + k * lanes(b) + c % w;
  };
  AlignedVec<double> panels0(kColumns * kLev), panels(kColumns * kLev);
  for (std::size_t c = 0; c < kColumns; ++c)
    for (std::size_t k = 0; k < kLev; ++k)
      panels0[at(c, k)] = columns[c * kLev + k];
  PathResult out;
  for (int t = 0; t < trials; ++t) {
    panels = panels0;  // identical work every trial
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t b = 0; b < kColumns; b += w) {
        double* panel = panels.data() + b * kLev;
        if (thomas) {
          ops.thomas_lanes(static_cast<int>(kLev), lanes(b), lanes(b),
                           a.data(), cp.data(), denom.data(), panel);
        } else {
          ops.longwave_lanes(static_cast<int>(kLev), lanes(b), lanes(b),
                             emis.data(), 450.0, panel);
        }
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  for (std::size_t c = 0; c < kColumns; ++c)
    for (std::size_t k = 0; k < kLev; ++k)
      out.fields.push_back(panels[at(c, k)]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --check-only before the common parser sees it.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-only") == 0) {
      g_check_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  auto opts = agcm::bench::BenchOptions::parse(
      static_cast<int>(args.size()), args.data(), "simd_dispatch");
  agcm::bench::JsonReport report(opts);
  agcm::bench::print_header(
      g_check_only
          ? "SIMD dispatch: cross-tier correctness (no timing)"
          : "SIMD dispatch: per-tier host speed and correctness");

  constexpr double kSpeedGate = 1.5;  // active tier vs forced-scalar engine

  const simd::Tier active = simd::active_tier();
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  for (simd::Tier t : {simd::Tier::kAvx2, simd::Tier::kAvx512})
    if (simd::tier_supported(t)) tiers.push_back(t);

  const int rows_reps = g_check_only ? 1 : 400;
  const int adv_reps = g_check_only ? 1 : 6;
  const int pw_reps = g_check_only ? 1 : 8000;
  const int sten_reps = g_check_only ? 1 : 4;
  const int blas_reps = g_check_only ? 1 : 4000;
  const int conv_reps = g_check_only ? 1 : 400;
  const int lanes_reps = g_check_only ? 1 : 200;
  const int trials = g_check_only ? 1 : 7;

  // Scalar-tier references (and, for advection, the seed implementation).
  const PathResult rows_scalar =
      run_advect_rows(simd::Tier::kScalar, rows_reps, trials);
  const PathResult adv_seed =
      run_advection(simd::Tier::kScalar, true, adv_reps, trials);
  const PathResult pw_scalar =
      run_pointwise(simd::Tier::kScalar, false, pw_reps, trials);
  const PathResult sten_seed =
      run_stencil(simd::Tier::kScalar, false, sten_reps, trials);
  const PathResult blas_scalar =
      run_daxpy(simd::Tier::kScalar, false, blas_reps, trials);
  const PathResult conv_scalar =
      run_conv(simd::Tier::kScalar, conv_reps, trials);
  const PathResult longwave_scalar =
      run_column_lanes(simd::Tier::kScalar, false, lanes_reps, trials);
  const PathResult thomas_scalar =
      run_column_lanes(simd::Tier::kScalar, true, lanes_reps, trials);

  // Per-tier runs, each compared bitwise with the scalar references.
  bool adv_bits = true, pw_bits = true, sten_bits = true, daxpy_bits = true,
       conv_bits = true, longwave_bits = true, thomas_bits = true;
  struct TierRow {
    simd::Tier tier;
    double rows_ms, adv_ms, pw_ms, sten_ms, daxpy_ms, conv_ms, longwave_ms,
        thomas_ms;
  };
  std::vector<TierRow> rows;
  for (simd::Tier tier : tiers) {
    const PathResult advr = run_advect_rows(tier, rows_reps, trials);
    const PathResult adv = run_advection(tier, false, adv_reps, trials);
    const PathResult pw = run_pointwise(tier, true, pw_reps, trials);
    const PathResult sten = run_stencil(tier, true, sten_reps, trials);
    const PathResult axp = run_daxpy(tier, true, blas_reps, trials);
    const PathResult conv = run_conv(tier, conv_reps, trials);
    const PathResult longwave =
        run_column_lanes(tier, false, lanes_reps, trials);
    const PathResult thomas = run_column_lanes(tier, true, lanes_reps, trials);

    adv_bits = adv_bits && bitwise_equal(rows_scalar.fields, advr.fields) &&
               bitwise_equal(adv_seed.fields, adv.fields);
    pw_bits = pw_bits && bitwise_equal(pw_scalar.fields, pw.fields);
    sten_bits = sten_bits && bitwise_equal(sten_seed.fields, sten.fields);
    daxpy_bits = daxpy_bits && bitwise_equal(blas_scalar.fields, axp.fields);
    conv_bits = conv_bits && bitwise_equal(conv_scalar.fields, conv.fields);
    longwave_bits =
        longwave_bits && bitwise_equal(longwave_scalar.fields, longwave.fields);
    thomas_bits =
        thomas_bits && bitwise_equal(thomas_scalar.fields, thomas.fields);

    rows.push_back({tier, advr.seconds * 1e3, adv.seconds * 1e3,
                    pw.seconds * 1e3, sten.seconds * 1e3, axp.seconds * 1e3,
                    conv.seconds * 1e3, longwave.seconds * 1e3,
                    thomas.seconds * 1e3});
  }

  const bool correctness = adv_bits && pw_bits && sten_bits && daxpy_bits &&
                           conv_bits && longwave_bits && thomas_bits;

  Table bits("Cross-tier correctness vs scalar references (bitwise)",
             {"Family", "Result"});
  auto verdict = [](bool ok) { return ok ? "identical" : "MISMATCH"; };
  bits.add_row({"advection (rows + engine vs seed)", verdict(adv_bits)});
  bits.add_row({"pointwise", verdict(pw_bits)});
  bits.add_row({"stencil separate", verdict(sten_bits)});
  bits.add_row({"daxpy", verdict(daxpy_bits)});
  bits.add_row({"ring convolution chunk", verdict(conv_bits)});
  bits.add_row({"longwave lanes", verdict(longwave_bits)});
  bits.add_row({"thomas lanes", verdict(thomas_bits)});
  agcm::bench::emit_table(report, bits);

  report.set("mode", g_check_only ? "check-only" : "full");
  report.set("active_tier", std::string(simd::tier_name(active)));
  report.set("detected_tier",
             std::string(simd::tier_name(simd::info().detected)));
  report.set("tiers_checked", static_cast<double>(tiers.size()));
  report.set("advection_bitwise_identical", adv_bits);
  report.set("pointwise_bitwise_identical", pw_bits);
  report.set("stencil_bitwise_identical", sten_bits);
  report.set("daxpy_bitwise_identical", daxpy_bits);
  report.set("conv_chunk_bitwise_identical", conv_bits);
  report.set("longwave_lanes_bitwise_identical", longwave_bits);
  report.set("thomas_lanes_bitwise_identical", thomas_bits);
  report.set("gate_speedup_min", kSpeedGate);

  bool gates = correctness;
  if (!g_check_only) {
    Table speed("Per-tier best-of-" + std::to_string(trials) +
                    " host time (ms; speedup vs forced-scalar engine)",
                {"Tier", "Advect rows", "Advect engine", "Pointwise",
                 "Stencil", "daxpy", "Conv chunk", "Longwave lanes",
                 "Thomas lanes"});
    const TierRow& base = rows.front();
    auto cell = [&](double ms, double base_ms) {
      return Table::num(ms, 3) + " (" + Table::num(base_ms / ms, 2) + "x)";
    };
    for (const TierRow& r : rows) {
      speed.add_row({simd::tier_name(r.tier), cell(r.rows_ms, base.rows_ms),
                     cell(r.adv_ms, base.adv_ms), cell(r.pw_ms, base.pw_ms),
                     cell(r.sten_ms, base.sten_ms),
                     cell(r.daxpy_ms, base.daxpy_ms),
                     cell(r.conv_ms, base.conv_ms),
                     cell(r.longwave_ms, base.longwave_ms),
                     cell(r.thomas_ms, base.thomas_ms)});
    }
    agcm::bench::emit_table(report, speed);

    if (active == simd::Tier::kScalar) {
      agcm::bench::print_note(
          "speed gates skipped: resolved tier is scalar (no SIMD tier "
          "built/supported, or AGCM_SIMD=scalar)");
      report.set("speed_gates_skipped", true);
    } else {
      double adv_speedup = 0.0, pw_speedup = 0.0;
      for (const TierRow& r : rows) {
        if (r.tier == active) {
          adv_speedup = base.rows_ms / r.rows_ms;
          pw_speedup = base.pw_ms / r.pw_ms;
        }
      }
      report.set("advection_speedup", adv_speedup);
      report.set("pointwise_speedup", pw_speedup);
      const bool speed_ok =
          adv_speedup >= kSpeedGate && pw_speedup >= kSpeedGate;
      if (!speed_ok) {
        std::fprintf(stderr,
                     "speedup gate failed at tier %s: advection rows %.2fx, "
                     "pointwise %.2fx (both >= %.1fx required)\n",
                     simd::tier_name(active), adv_speedup, pw_speedup,
                     kSpeedGate);
      }
      gates = gates && speed_ok;
    }
  }
  if (!correctness) {
    std::fprintf(stderr, "cross-tier correctness check failed\n");
  }

  agcm::bench::print_note(
      g_check_only
          ? "check-only: deterministic fields only (no host timings)"
          : "gates: advection and pointwise >= " + Table::num(kSpeedGate, 1) +
                "x scalar at the active tier; every family bitwise");

  report.set("gates_passed", gates);
  report.finish();
  return gates ? 0 : 1;
}
