// FFT kernel microbenchmark: host time of the polar-filter FFT paths.
//
// Compares, at the AGCM line lengths nlon in {72, 144, 288}:
//   * seed-recursive-pair — the ORIGINAL recursive engine (fft/recursive_ref)
//     driving the seed's pair-filter structure (per-call heap scratch,
//     split/merge through materialised spectra). This is the baseline the
//     iterative engine replaced.
//   * iterative-single   — filter_line_fft, one line per complex transform.
//   * iterative-pair     — filter_line_pair_fft, two lines per transform
//     with the fused in-spectrum response multiply.
//   * iterative-batched  — filter_lines_fft, the pair-packing batched
//     driver the parallel variants call (same-response pairing fast path).
//
// Reported per path: host ns per grid point, and the FROZEN virtual-clock
// flops the path charges per batch (which, by design, is identical for
// every FFT path — host optimisation never moves the paper's numbers).
//
// The headline acceptance numbers land as top-level JSON fields:
//   seed_ns_per_point_n144, batched_ns_per_point_n144, speedup_n144
// (ISSUE 2 requires speedup_n144 >= 3).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fft/fft.hpp"
#include "fft/recursive_ref.hpp"
#include "fft/plan_cache.hpp"
#include "filter/bank.hpp"
#include "filter/serial.hpp"
#include "grid/latlon.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace agcm {
namespace {

using bench::Stopwatch;
using fft::Complex;

/// Lines per batch: a representative per-node share (e.g. nlev layers of a
/// few variables at a couple of latitudes). Odd, so the trailing
/// single-line path is exercised too.
constexpr int kBatchLines = 15;

struct PathResult {
  std::string name;
  double ns_per_point = 0.0;
  double virtual_flops = 0.0;  ///< frozen charge per batch
  double checksum = 0.0;       ///< defeats dead-code elimination; printed
};

/// The seed's pair filter, verbatim structure: recursive engine,
/// materialised spectra, per-call allocations.
void seed_filter_pair(const fft::RecursiveFftPlan& plan, std::span<double> a,
                      std::span<double> b, std::span<const double> s_a,
                      std::span<const double> s_b) {
  const auto n = static_cast<std::size_t>(plan.size());
  std::vector<Complex> sa(n), sb(n);
  plan.forward_real_pair(a, b, sa, sb);
  for (std::size_t k = 0; k < n; ++k) {
    sa[k] *= s_a[k];
    sb[k] *= s_b[k];
  }
  plan.inverse_to_real_pair(sa, sb, a, b);
}

void seed_filter_single(const fft::RecursiveFftPlan& plan,
                        std::span<double> line, std::span<const double> s) {
  const auto n = static_cast<std::size_t>(plan.size());
  std::vector<Complex> spectrum = plan.forward_real(line);
  for (std::size_t k = 0; k < n; ++k) spectrum[k] *= s[k];
  plan.inverse_to_real(spectrum, line);
}

double batch_virtual_flops(int n, std::size_t count) {
  double flops = 0.0;
  std::size_t p = 0;
  for (; p + 1 < count; p += 2) flops += filter::fft_filter_pair_flops(n);
  if (p < count) flops += filter::fft_filter_flops(n);
  return flops;
}

double sum(std::span<const double> data) {
  double s = 0.0;
  for (double v : data) s += v;
  return s;
}

/// Runs `body(data)` `reps` times over a fresh copy of `base` and returns
/// ns per grid point plus a checksum of the final state.
template <typename Body>
PathResult time_path(const std::string& name, std::span<const double> base,
                     int n, int reps, double virtual_flops, Body&& body) {
  std::vector<double> data(base.begin(), base.end());
  body(std::span<double>(data));  // warm-up (workspace growth, caches)
  std::copy(base.begin(), base.end(), data.begin());

  Stopwatch watch;
  for (int r = 0; r < reps; ++r) body(std::span<double>(data));
  const double sec = watch.seconds();

  PathResult out;
  out.name = name;
  const double points =
      static_cast<double>(reps) * static_cast<double>(base.size());
  out.ns_per_point = sec * 1e9 / points;
  out.virtual_flops = virtual_flops;
  out.checksum = sum(data);
  (void)n;
  return out;
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  bench::BenchOptions opts =
      bench::BenchOptions::parse(argc, argv, "fft_kernel");
  bench::JsonReport report(opts);
  bench::g_report = &report;

  bench::print_header(
      "FFT kernel microbench: seed recursive engine vs iterative engine\n"
      "(host ns/point; virtual-clock flops are FROZEN and path-independent)");

  Table table("Polar-filter FFT paths",
              {"nlon", "path", "reps", "ns/point", "Mpoints/s",
               "virtual flops/batch"});

  double seed_144 = 0.0;
  double batched_144 = 0.0;

  for (int nlon : {72, 144, 288}) {
    // A realistic response workload: one strongly and one weakly filtered
    // variable on an AGCM-shaped grid; the batch takes the first
    // kBatchLines global lines (several layers, a few latitudes).
    const grid::LatLonGrid grid(nlon, 90, 5);
    const filter::FilterBank bank(grid,
                                  {{"u", filter::FilterKind::kStrong},
                                   {"t", filter::FilterKind::kWeak}});
    const auto& all = bank.lines();
    const std::vector<filter::LineKey> batch(all.begin(),
                                             all.begin() + kBatchLines);
    const auto un = static_cast<std::size_t>(nlon);

    Rng rng(42 + static_cast<std::uint64_t>(nlon));
    std::vector<double> base(batch.size() * un);
    for (double& v : base) v = rng.uniform(-1.0, 1.0);

    const fft::RecursiveFftPlan seed_plan(nlon);
    const std::shared_ptr<const fft::FftPlan> shared = fft::shared_plan(nlon);
    const fft::FftPlan& plan = *shared;
    const double vflops = batch_virtual_flops(nlon, batch.size());

    // Reps sized for a few hundred ms per path at every length.
    const int reps =
        std::max(200, static_cast<int>(6.0e6 / static_cast<double>(un) /
                                       static_cast<double>(batch.size())));

    auto line_of = [&](std::span<double> data, std::size_t i) {
      return data.subspan(i * un, un);
    };
    auto resp = [&](std::size_t i) {
      return bank.response(batch[i].var, batch[i].j);
    };

    std::vector<PathResult> results;
    results.push_back(time_path(
        "seed-recursive-pair", base, nlon, reps, vflops,
        [&](std::span<double> data) {
          std::size_t p = 0;
          for (; p + 1 < batch.size(); p += 2) {
            seed_filter_pair(seed_plan, line_of(data, p), line_of(data, p + 1),
                             resp(p), resp(p + 1));
          }
          if (p < batch.size())
            seed_filter_single(seed_plan, line_of(data, p), resp(p));
        }));
    results.push_back(time_path(
        "iterative-single", base, nlon, reps,
        static_cast<double>(batch.size()) * filter::fft_filter_flops(nlon),
        [&](std::span<double> data) {
          for (std::size_t i = 0; i < batch.size(); ++i)
            filter::filter_line_fft(plan, line_of(data, i), resp(i));
        }));
    results.push_back(time_path(
        "iterative-pair", base, nlon, reps, vflops,
        [&](std::span<double> data) {
          std::size_t p = 0;
          for (; p + 1 < batch.size(); p += 2) {
            filter::filter_line_pair_fft(plan, line_of(data, p),
                                         line_of(data, p + 1), resp(p),
                                         resp(p + 1));
          }
          if (p < batch.size())
            filter::filter_line_fft(plan, line_of(data, p), resp(p));
        }));
    results.push_back(time_path(
        "iterative-batched", base, nlon, reps, vflops,
        [&](std::span<double> data) {
          filter::filter_lines_fft(plan, bank, batch, data);
        }));

    for (const PathResult& r : results) {
      table.add_row({std::to_string(nlon), r.name, std::to_string(reps),
                     Table::num(r.ns_per_point, 2),
                     Table::num(1e3 / r.ns_per_point, 1),
                     Table::num(r.virtual_flops, 0)});
      if (nlon == 144) {
        if (r.name == "seed-recursive-pair") seed_144 = r.ns_per_point;
        if (r.name == "iterative-batched") batched_144 = r.ns_per_point;
      }
    }

    // Cross-path sanity: every path must converge to (nearly) the same
    // filtered field; a large drift would mean a path is wrong.
    for (std::size_t i = 1; i < results.size(); ++i) {
      const double ref = results[0].checksum;
      const double drift = std::abs(results[i].checksum - ref) /
                           std::max(1.0, std::abs(ref));
      if (drift > 1e-6) {
        std::fprintf(stderr, "checksum drift on %s at nlon=%d: %g vs %g\n",
                     results[i].name.c_str(), nlon, results[i].checksum, ref);
        return 1;
      }
    }
  }

  bench::emit_table(report, table);

  const double speedup = seed_144 / batched_144;
  bench::print_note("headline (nlon=144): seed " +
                    Table::num(seed_144, 2) + " ns/point, batched " +
                    Table::num(batched_144, 2) + " ns/point, speedup " +
                    Table::num(speedup, 2) + "x (acceptance: >= 3x)");

  report.set("seed_ns_per_point_n144", seed_144);
  report.set("batched_ns_per_point_n144", batched_144);
  report.set("speedup_n144", speedup);
  report.finish();
  return 0;
}
