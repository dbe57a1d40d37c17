// Reproduces the Section 3.4 advection-routine optimization experiment:
// eliminating redundant calculations in nested loops, hoisting invariants
// and fusing the per-tracer passes.
//
// Paper: "When applying these strategies to the advection routine, we were
// able to reduce its execution time on a single Cray T3D node by about 35%."
//
// Reported here: the virtual-machine cost model for the Paragon and the
// T3D, and the real host wall-clock of the two implementations. This bench
// is the baseline loop's only caller outside the tests.
#include <vector>

#include "bench_common.hpp"
#include "dynamics/advection.hpp"
#include "dynamics/advection_seed_ref.hpp"
#include "dynamics/state.hpp"

namespace agcm {
namespace {

using bench::print_header;
using bench::print_note;
using bench::Stopwatch;
using namespace dynamics;

struct Variant {
  const char* name;
  KernelCost cost;
  double host_ms;
};

Variant measure(bool optimized, const grid::LatLonGrid& grid,
                const grid::LocalBox& box, const Metrics& metrics, int reps) {
  State state(box, grid.nlev());
  initialize_state(state, grid, box, 1996);
  grid::Array3D<double> h_new = state.h;
  grid::Array3D<double>* tracers[] = {&state.theta, &state.q};

  KernelCost cost{};
  Stopwatch timer;
  for (int r = 0; r < reps; ++r) {
    cost = optimized
               ? advect_tracers_optimized(grid, box, metrics, state.h, h_new,
                                          state.u, state.v, tracers, 450.0)
               : advect_tracers_baseline(grid, box, metrics, state.h, h_new,
                                         state.u, state.v, tracers, 450.0);
  }
  return {optimized ? "optimized" : "baseline", cost,
          timer.seconds() * 1000.0 / reps};
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  auto opts = bench::BenchOptions::parse(argc, argv, "advection_opt");
  bench::JsonReport report(opts);
  bench::g_report = &report;
  print_header("Section 3.4: advection routine single-node optimization");

  const grid::LatLonGrid grid = grid::LatLonGrid::paper_9layer();
  const grid::LocalBox box{0, grid.nlon(), 0, grid.nlat()};
  const Metrics metrics = Metrics::build(grid, box);

  const Variant baseline = measure(false, grid, box, metrics, 4);
  const Variant optimized = measure(true, grid, box, metrics, 4);

  const auto paragon = simnet::MachineProfile::intel_paragon();
  const auto t3d = simnet::MachineProfile::cray_t3d();

  Table table("Advection routine, full 144x90x9 grid on one node",
              {"Variant", "model flops", "model cache eff", "T3D virtual s",
               "Paragon virtual s", "host ms"});
  for (const Variant& v : {baseline, optimized}) {
    table.add_row(
        {v.name, Table::num(v.cost.flops / 1.0e6, 2) + "M",
         Table::num(v.cost.cache_efficiency, 2),
         Table::num(t3d.compute_time(v.cost.flops, v.cost.cache_efficiency), 3),
         Table::num(paragon.compute_time(v.cost.flops, v.cost.cache_efficiency), 3),
         Table::num(v.host_ms, 2)});
  }
  bench::emit_table(table);

  const double t_base =
      t3d.compute_time(baseline.cost.flops, baseline.cost.cache_efficiency);
  const double t_opt =
      t3d.compute_time(optimized.cost.flops, optimized.cost.cache_efficiency);
  std::printf(
      "Execution-time reduction on one T3D node: paper ~35%%, model %.0f%%, "
      "host wall-clock %.0f%%\n\n",
      100.0 * (1.0 - t_opt / t_base),
      100.0 * (1.0 - optimized.host_ms / baseline.host_ms));
  print_note(
      "The two variants produce bit-identical fields (verified by the test\n"
      "suite); only redundant work and loop structure differ.\n"
      "\n"
      "Host column: 'baseline' is the paper's pre-optimization loop\n"
      "(dynamics/advection_seed_ref.cpp), 'optimized' the row-streamed\n"
      "engine. The engine also wins on the host: each row's fluxes are\n"
      "computed once into L1-resident rows and consumed at once by every\n"
      "tracer. Because the bits agree, a model run always executes the\n"
      "engine; optimized_advection selects only the virtual charge.");
  report.finish();
  return 0;
}
