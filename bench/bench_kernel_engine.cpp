// Host-side speed of the vectorized single-node kernel engine vs the seed
// implementations it replaced (docs/kernels.md).
//
// Three kernel families, each compared seed-vs-engine on identical inputs:
//
//  * advection — dynamics::advect_tracers_optimized_seed_ref (per-element
//    Array3D accesses, per-call scratch allocation) vs the production path,
//    which now routes through kernels::advect_tracers_engine (FieldView
//    raw-pointer rows, row streaming, 4-wide unrolling, KernelWorkspace
//    scratch). Full paper grid, 144x90x9, two tracers.
//  * physics   — physics::step_column_seed_ref (per-pair emissivity
//    recomputation, per-call band vectors and Thomas copies) one column at
//    a time vs the production column engine, physics::step_columns, over
//    the whole field (distance-indexed emissivity table, longwave exchange
//    and Thomas solves across columns in SIMD lanes, pivots and zenith
//    terms hoisted). A day/night field of columns at the paper's 9 levels.
//  * stencil   — the Section 3.4 Laplace layout experiment's seed loops vs
//    the peeled/unrolled engines (informational; no gate).
//
// Every trial restarts from a fresh copy of the same initial state, so all
// timed blocks do identical work and best-of-N min-time is a like-for-like
// estimator (the bench_comm_transport convention).
//
// Acceptance gates (exit code 1 on failure, recorded in the BENCH JSON):
//   advection_speedup >= 2.0, physics_speedup >= 1.3,
//   and every seed/engine pair must be BITWISE identical.
//
// `--check-only` skips all timing and emits only the deterministic fields
// (checksums, bitwise verdicts, gate constants) so CI's determinism fence
// can byte-compare two runs — host timings are inherently noisy and are
// excluded from that mode.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dynamics/advection.hpp"
#include "kernels/simd/dispatch.hpp"
#include "dynamics/advection_seed_ref.hpp"
#include "dynamics/state.hpp"
#include "kernels/stencil_kernels.hpp"
#include "kernels/workspace.hpp"
#include "physics/column.hpp"
#include "physics/column_seed_ref.hpp"
#include "singlenode/stencil.hpp"
#include "util/table.hpp"

namespace {

using agcm::Table;
using agcm::bench::Stopwatch;
using agcm::grid::Array3D;

bool g_check_only = false;

/// Exact byte comparison of two double sequences.
bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double sum(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct PathResult {
  double seconds = 0.0;           ///< best timed block (0 in check-only)
  double checksum = 0.0;          ///< of the final fields
  std::vector<double> fields;     ///< final field bytes, for bit-compare
};

// --- advection --------------------------------------------------------------

PathResult run_advection(bool engine, int reps, int trials) {
  using namespace agcm::dynamics;
  const agcm::grid::LatLonGrid grid = agcm::grid::LatLonGrid::paper_9layer();
  const agcm::grid::LocalBox box{0, grid.nlon(), 0, grid.nlat()};
  const Metrics metrics = Metrics::build(grid, box);

  State init(box, grid.nlev());
  initialize_state(init, grid, box, 1996);
  const Array3D<double> h_new = init.h;

  PathResult out;
  State state;
  for (int t = 0; t < trials; ++t) {
    state = init;  // identical work every trial
    Array3D<double>* tracers[] = {&state.theta, &state.q};
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      if (engine) {
        advect_tracers_optimized(grid, box, metrics, state.h, h_new, state.u,
                                 state.v, tracers, 450.0);
      } else {
        advect_tracers_optimized_seed_ref(grid, box, metrics, state.h, h_new,
                                          state.u, state.v, tracers, 450.0);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  const auto theta = state.theta.raw();
  const auto q = state.q.raw();
  out.fields.assign(theta.begin(), theta.end());
  out.fields.insert(out.fields.end(), q.begin(), q.end());
  out.checksum = sum(out.fields);
  return out;
}

// --- physics columns --------------------------------------------------------

struct ColumnField {
  // A 48x24 day/night field of columns at the paper's 9 levels; some
  // columns start convectively unstable so the adjustment loop iterates.
  static constexpr int kNi = 48, kNj = 24;
  agcm::physics::ColumnParams params;
  std::vector<double> theta, q;
  std::vector<double> lat, lon;

  ColumnField() {
    const int nlev = params.nlev;
    const auto ncols = static_cast<std::size_t>(kNi) * kNj;
    theta.resize(ncols * static_cast<std::size_t>(nlev));
    q.resize(ncols * static_cast<std::size_t>(nlev));
    lat.resize(ncols);
    lon.resize(ncols);
    std::size_t c = 0;
    for (int j = 0; j < kNj; ++j) {
      for (int i = 0; i < kNi; ++i, ++c) {
        lat[c] = (-80.0 + 160.0 * j / (kNj - 1)) * std::numbers::pi / 180.0;
        lon[c] = 2.0 * std::numbers::pi * i / kNi;
        double* th = theta.data() + c * static_cast<std::size_t>(nlev);
        double* qv = q.data() + c * static_cast<std::size_t>(nlev);
        for (int k = 0; k < nlev; ++k) {
          // Stable lapse with an unstable kink in every third column.
          th[k] = 285.0 + 0.8 * k +
                  ((i + j) % 3 == 0 ? -1.1 * ((k % 3 == 1) ? 1.0 : 0.0) : 0.0) +
                  0.05 * std::sin(0.7 * (c + static_cast<std::size_t>(k)));
          qv[k] = 0.012 * std::exp(-0.35 * k) *
                  (1.0 + 0.2 * std::cos(lat[c]) * std::sin(lon[c]));
        }
      }
    }
  }
};

PathResult run_physics(bool engine, const ColumnField& init, int steps,
                       int trials) {
  using namespace agcm::physics;
  const int nlev = init.params.nlev;
  const auto ncols = static_cast<std::size_t>(ColumnField::kNi) *
                     ColumnField::kNj;
  PathResult out;
  std::vector<double> theta, q;
  std::vector<ColumnSite> sites(ncols);
  std::vector<ColumnResult> results(ncols);
  double totals = 0.0;  // flops + precip + iters, folded into the checksum
  for (int t = 0; t < trials; ++t) {
    theta = init.theta;  // identical work every trial
    q = init.q;
    for (std::size_t c = 0; c < ncols; ++c) {
      sites[c] = {c, init.lat[c], init.lon[c],
                  theta.data() + c * static_cast<std::size_t>(nlev),
                  q.data() + c * static_cast<std::size_t>(nlev)};
    }
    totals = 0.0;
    const Stopwatch sw;
    for (int s = 0; s < steps; ++s) {
      const double time_sec = s * init.params.dt_sec;
      if (engine) {
        step_columns(init.params, s, time_sec, sites, results);
      } else {
        for (std::size_t c = 0; c < ncols; ++c) {
          const ColumnSite& col = sites[c];
          results[c] = step_column_seed_ref(
              init.params, col.id, s, col.lat, col.lon, time_sec,
              {col.theta, static_cast<std::size_t>(nlev)},
              {col.q, static_cast<std::size_t>(nlev)});
        }
      }
      for (const ColumnResult& r : results) {
        totals += r.flops + r.precipitation +
                  static_cast<double>(r.convection_iters);
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  out.fields = theta;
  out.fields.insert(out.fields.end(), q.begin(), q.end());
  out.fields.push_back(totals);  // ColumnResult totals must match too
  out.checksum = sum(out.fields);
  return out;
}

// --- stencil ----------------------------------------------------------------

PathResult run_stencil(bool engine, bool block, int reps, int trials) {
  using namespace agcm::singlenode;
  constexpr int kM = 8, kN = 32;  // the paper's 32^3 experiment
  SeparateFields sep(kM, kN);
  const BlockFields blk = BlockFields::from_separate(sep);
  PathResult out;
  std::vector<double> r;
  for (int t = 0; t < trials; ++t) {
    const Stopwatch sw;
    for (int rep = 0; rep < reps; ++rep) {
      if (block) {
        if (engine) {
          agcm::kernels::laplace_sum_block_engine(blk, r);
        } else {
          laplace_sum_block(blk, r);
        }
      } else {
        if (engine) {
          agcm::kernels::laplace_sum_separate_engine(sep, r);
        } else {
          laplace_sum_separate(sep, r);
        }
      }
    }
    const double sec = sw.seconds();
    if (t == 0 || sec < out.seconds) out.seconds = sec;
  }
  out.fields = r;
  out.checksum = sum(out.fields);
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
      static_cast<int>(args.size()), args.data(), "kernel_engine");
  agcm::bench::JsonReport report(opts);
  agcm::bench::print_header(
      g_check_only
          ? "Kernel engine vs seed: bitwise cross-check (no timing)"
          : "Kernel engine vs seed: host speed and bitwise cross-check");

  constexpr double kAdvectionGate = 2.0;
  constexpr double kPhysicsGate = 1.3;
  // In check-only mode one short trial per path: enough to cover every
  // kernel (multiple steps so workspaces are warm), fully deterministic.
  const int adv_reps = g_check_only ? 2 : 6;
  const int adv_trials = g_check_only ? 1 : 7;
  const int phys_steps = g_check_only ? 2 : 4;
  const int phys_trials = g_check_only ? 1 : 7;
  const int sten_reps = g_check_only ? 1 : 4;
  const int sten_trials = g_check_only ? 1 : 7;

  const PathResult adv_seed = run_advection(false, adv_reps, adv_trials);
  const ColumnField columns;
  const PathResult phys_seed =
      run_physics(false, columns, phys_steps, phys_trials);
  const PathResult sep_seed = run_stencil(false, false, sten_reps, sten_trials);
  const PathResult blk_seed = run_stencil(false, true, sten_reps, sten_trials);

  // Check-only mode runs the engine paths once per supported SIMD dispatch
  // tier (scalar always), so the bitwise verdicts — and CI's determinism
  // fence — cover every tier the host can execute. Full mode times the
  // resolved tier only.
  std::vector<agcm::simd::Tier> tiers;
  if (g_check_only) {
    tiers.push_back(agcm::simd::Tier::kScalar);
    for (agcm::simd::Tier t :
         {agcm::simd::Tier::kAvx2, agcm::simd::Tier::kAvx512}) {
      if (agcm::simd::tier_supported(t)) tiers.push_back(t);
    }
  } else {
    tiers.push_back(agcm::simd::active_tier());
  }

  bool adv_bits = true, phys_bits = true, sep_bits = true, blk_bits = true;
  PathResult adv_eng, phys_eng, sep_eng, blk_eng;
  for (agcm::simd::Tier tier : tiers) {
    agcm::simd::force_tier(tier);
    adv_eng = run_advection(true, adv_reps, adv_trials);
    phys_eng = run_physics(true, columns, phys_steps, phys_trials);
    sep_eng = run_stencil(true, false, sten_reps, sten_trials);
    blk_eng = run_stencil(true, true, sten_reps, sten_trials);
    adv_bits = adv_bits && bitwise_equal(adv_seed.fields, adv_eng.fields);
    phys_bits = phys_bits && bitwise_equal(phys_seed.fields, phys_eng.fields);
    sep_bits = sep_bits && bitwise_equal(sep_seed.fields, sep_eng.fields);
    blk_bits = blk_bits && bitwise_equal(blk_seed.fields, blk_eng.fields);
  }
  agcm::simd::reset_tier();
  const bool all_bits = adv_bits && phys_bits && sep_bits && blk_bits;

  report.set("mode", g_check_only ? "check-only" : "full");
  report.set("simd_tiers_checked", static_cast<double>(tiers.size()));
  report.set("advection_bitwise_identical", adv_bits);
  report.set("physics_bitwise_identical", phys_bits);
  report.set("stencil_separate_bitwise_identical", sep_bits);
  report.set("stencil_block_bitwise_identical", blk_bits);
  report.set("advection_checksum", adv_eng.checksum);
  report.set("physics_checksum", phys_eng.checksum);
  report.set("stencil_separate_checksum", sep_eng.checksum);
  report.set("stencil_block_checksum", blk_eng.checksum);
  report.set("gate_advection_speedup_min", kAdvectionGate);
  report.set("gate_physics_speedup_min", kPhysicsGate);

  Table bits("Seed vs engine: bitwise identity of results",
             {"Kernel", "Seed checksum", "Engine checksum", "Bitwise"});
  auto add_bits = [&](const char* name, const PathResult& s,
                      const PathResult& e, bool same) {
    bits.add_row({name, Table::num(s.checksum, 6), Table::num(e.checksum, 6),
                  same ? "identical" : "MISMATCH"});
  };
  add_bits("advection (144x90x9, 2 tracers)", adv_seed, adv_eng, adv_bits);
  add_bits("physics columns (48x24 x 9 lev)", phys_seed, phys_eng, phys_bits);
  add_bits("stencil separate (m=8, 32^3)", sep_seed, sep_eng, sep_bits);
  add_bits("stencil block (m=8, 32^3)", blk_seed, blk_eng, blk_bits);
  agcm::bench::emit_table(report, bits);

  bool gates = all_bits;
  if (!g_check_only) {
    const double adv_speedup = adv_seed.seconds / adv_eng.seconds;
    const double phys_speedup = phys_seed.seconds / phys_eng.seconds;
    const double sep_speedup = sep_seed.seconds / sep_eng.seconds;
    const double blk_speedup = blk_seed.seconds / blk_eng.seconds;

    Table speed("Seed vs engine: best-of-" + std::to_string(adv_trials) +
                    " host time",
                {"Kernel", "Seed ms", "Engine ms", "Speedup", "Gate"});
    auto add_speed = [&](const char* name, const PathResult& s,
                         const PathResult& e, double speedup, double gate) {
      speed.add_row({name, Table::num(s.seconds * 1e3, 2),
                     Table::num(e.seconds * 1e3, 2),
                     Table::num(speedup, 2) + "x",
                     gate > 0.0 ? ">= " + Table::num(gate, 1) + "x" : "-"});
    };
    add_speed("advection", adv_seed, adv_eng, adv_speedup, kAdvectionGate);
    add_speed("physics columns", phys_seed, phys_eng, phys_speedup,
              kPhysicsGate);
    add_speed("stencil separate", sep_seed, sep_eng, sep_speedup, 0.0);
    add_speed("stencil block", blk_seed, blk_eng, blk_speedup, 0.0);
    agcm::bench::emit_table(report, speed);

    report.set("advection_speedup", adv_speedup);
    report.set("physics_speedup", phys_speedup);
    report.set("stencil_separate_speedup", sep_speedup);
    report.set("stencil_block_speedup", blk_speedup);

    const bool speed_ok =
        adv_speedup >= kAdvectionGate && phys_speedup >= kPhysicsGate;
    if (!speed_ok) {
      std::fprintf(stderr,
                   "speedup gate failed: advection %.2fx (>= %.1fx), "
                   "physics %.2fx (>= %.1fx)\n",
                   adv_speedup, kAdvectionGate, phys_speedup, kPhysicsGate);
    }
    gates = gates && speed_ok;
  }
  if (!all_bits) {
    std::fprintf(stderr, "bitwise mismatch between seed and engine paths\n");
  }

  agcm::bench::print_note(
      g_check_only
          ? "check-only: deterministic fields only (no host timings)"
          : "gates: advection >= " + Table::num(kAdvectionGate, 1) +
                "x, physics >= " + Table::num(kPhysicsGate, 1) +
                "x, all kernels bitwise identical");

  report.set("gates_passed", gates);
  report.finish();
  return gates ? 0 : 1;
}
