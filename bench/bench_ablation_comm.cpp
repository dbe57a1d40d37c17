// Ablation benches for the design choices DESIGN.md calls out:
//
//  1. Ring vs tree convolution filtering (Section 2 cites the tradeoff:
//     the ring sends more messages, the tree moves more data) — measured
//     as actual message counts / volumes / virtual time on one mesh.
//  2. FFT-transpose vs load-balanced FFT across mesh heights: the taller
//     the mesh, the more idle equatorial rows the Figure-2 redistribution
//     recovers.
//  3. The one-time setup cost of the load-balanced filter plan vs problem
//     size ("its cost is also nearly independent of AGCM problem size").
//  4. Scheme 1 vs Scheme 2 vs Scheme 3 load balancing: achieved imbalance
//     vs message count and moved volume (the paper's Figures 4-6 argument).
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "comm/mesh2d.hpp"
#include "dynamics/dynamics.hpp"
#include "filter/variants.hpp"
#include "loadbalance/planner.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace agcm {
namespace {

using bench::NodeMesh;
using bench::print_header;
using bench::print_note;

struct FilterCosts {
  double virtual_sec = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double setup_sec = 0.0;
};

FilterCosts measure_filter(filter::FilterAlgorithm algorithm,
                           NodeMesh mesh_spec, int nlon, int nlat, int nlev) {
  simnet::Machine machine(simnet::MachineProfile::intel_paragon());
  machine.set_recv_timeout_ms(600'000);
  FilterCosts costs;
  const auto nodes = static_cast<std::size_t>(mesh_spec.nodes());
  std::vector<double> per_rank(nodes);
  std::vector<double> setup(nodes);
  std::vector<simnet::Traffic> apply_traffic(nodes);

  trace::record_traffic(machine.run(mesh_spec.nodes(), [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, mesh_spec.rows, mesh_spec.cols);
    const grid::LatLonGrid grid(nlon, nlat, nlev);
    const grid::Decomp2D decomp(nlon, nlat, mesh_spec.rows, mesh_spec.cols);
    const auto box = decomp.box(mesh.coord());
    const filter::FilterBank bank(grid,
                                  dynamics::Dynamics::filtered_variables());
    const auto me = static_cast<std::size_t>(world.rank());
    const double s0 = world.now();
    auto filt = filter::make_filter(algorithm, mesh, decomp, bank);
    setup[me] = world.now() - s0;

    dynamics::State state(box, nlev);
    dynamics::initialize_state(state, grid, box, 1);
    grid::Array3D<double>* fields[] = {&state.u, &state.v, &state.h,
                                       &state.theta, &state.q};
    // The barriers align the virtual clocks around apply(); the traffic
    // columns count apply() alone, as this rank's ledger delta across it.
    world.barrier();
    const double t0 = world.now();
    const simnet::Traffic before = ctx.traffic();
    filt->apply(fields);
    apply_traffic[me] = ctx.traffic() - before;
    world.barrier();
    per_rank[me] = world.now() - t0;
  }));

  for (double t : per_rank) costs.virtual_sec = std::max(costs.virtual_sec, t);
  for (double t : setup) costs.setup_sec = std::max(costs.setup_sec, t);
  simnet::Traffic traffic;
  for (const simnet::Traffic& t : apply_traffic) traffic += t;
  costs.messages = traffic.messages_sent;
  costs.bytes = traffic.bytes_sent;
  return costs;
}

/// Ring-vs-tree message ratio at the 4x8 mesh (ring sends more messages,
/// tree moves more bytes); recorded in the report summary.
struct RingTreeSummary {
  double msg_ratio = 0.0;    ///< ring messages / tree messages
  bool tree_more_bytes = false;
};

RingTreeSummary ring_vs_tree() {
  Table table(
      "Ablation 1: convolution filtering, ring vs tree (Paragon, 144x90x9)",
      {"Mesh", "Variant", "virtual s/apply", "messages", "MB moved"});
  RingTreeSummary summary;
  for (NodeMesh mesh : {NodeMesh{4, 8}, NodeMesh{4, 16}}) {
    FilterCosts ring_costs, tree_costs;
    for (auto [alg, name] :
         {std::pair{filter::FilterAlgorithm::kConvolutionRing, "ring"},
          std::pair{filter::FilterAlgorithm::kConvolutionTree, "tree"}}) {
      const FilterCosts c = measure_filter(alg, mesh, 144, 90, 9);
      if (alg == filter::FilterAlgorithm::kConvolutionRing) ring_costs = c;
      else tree_costs = c;
      table.add_row({mesh.label(), name, Table::num(c.virtual_sec, 4),
                     std::to_string(c.messages),
                     Table::num(static_cast<double>(c.bytes) / 1.0e6, 2)});
    }
    if (mesh.rows == 4 && mesh.cols == 8) {
      summary.msg_ratio = static_cast<double>(ring_costs.messages) /
                          static_cast<double>(tree_costs.messages);
      summary.tree_more_bytes = tree_costs.bytes > ring_costs.bytes;
    }
  }
  bench::emit_table(table);
  print_note(
      "Expected shape (Section 2): the ring needs ~(P-1) messages per node\n"
      "per variable but ships only chunk-sized payloads; the tree sends far\n"
      "fewer messages but moves whole lines (larger volume).\n");
  return summary;
}

/// Load-balance gain at the shortest and tallest mesh; recorded in the
/// report summary (the gain must grow with the number of processor rows).
struct LbGainSummary {
  double gain_short = 0.0;  ///< 2x8 mesh
  double gain_tall = 0.0;   ///< 12x8 mesh
};

LbGainSummary balanced_vs_plain() {
  Table table(
      "Ablation 2: FFT-transpose vs load-balanced FFT across mesh heights",
      {"Mesh", "FFT no LB s/apply", "FFT+LB s/apply", "gain"});
  LbGainSummary summary;
  for (NodeMesh mesh :
       {NodeMesh{2, 8}, NodeMesh{4, 8}, NodeMesh{8, 8}, NodeMesh{12, 8}}) {
    const FilterCosts plain =
        measure_filter(filter::FilterAlgorithm::kFftTranspose, mesh, 144, 90, 9);
    const FilterCosts lb =
        measure_filter(filter::FilterAlgorithm::kFftBalanced, mesh, 144, 90, 9);
    const double gain = plain.virtual_sec / lb.virtual_sec;
    if (mesh.rows == 2) summary.gain_short = gain;
    if (mesh.rows == 12) summary.gain_tall = gain;
    table.add_row({mesh.label(), Table::num(plain.virtual_sec, 4),
                   Table::num(lb.virtual_sec, 4),
                   Table::num(gain, 2) + "x"});
  }
  bench::emit_table(table);
  print_note(
      "Expected shape: the gain grows with the number of processor rows —\n"
      "more equatorial rows idle without the Figure-2 redistribution.\n");
  return summary;
}

void setup_cost() {
  Table table(
      "Ablation 3: one-time setup cost of the load-balanced filter plan",
      {"Grid", "Layers", "setup virtual s", "one apply virtual s"});
  for (auto [nlon, nlat, nlev] :
       {std::tuple{72, 46, 9}, std::tuple{144, 90, 9},
        std::tuple{144, 90, 15}, std::tuple{288, 180, 9}}) {
    const FilterCosts c = measure_filter(filter::FilterAlgorithm::kFftBalanced,
                                         {4, 8}, nlon, nlat, nlev);
    table.add_row({std::to_string(nlon) + "x" + std::to_string(nlat),
                   std::to_string(nlev), Table::num(c.setup_sec, 5),
                   Table::num(c.virtual_sec, 5)});
  }
  bench::emit_table(table);
  print_note(
      "Paper: setup 'is done only once, and its cost is also nearly\n"
      "independent of AGCM problem size' — it grows far slower than the\n"
      "per-step filtering work.\n");
}

void implicit_vs_spectral() {
  Table table(
      "Ablation 5 (extension): implicit zonal diffusion vs spectral filter",
      {"Mesh", "Variant", "virtual s/apply", "messages", "MB moved"});
  for (NodeMesh mesh : {NodeMesh{4, 4}, NodeMesh{4, 8}}) {
    for (auto [alg, name] :
         {std::pair{filter::FilterAlgorithm::kFftBalanced, "fft-load-balanced"},
          std::pair{filter::FilterAlgorithm::kImplicitZonal,
                    "implicit-zonal"}}) {
      const FilterCosts c = measure_filter(alg, mesh, 144, 90, 9);
      table.add_row({mesh.label(), name, Table::num(c.virtual_sec, 4),
                     std::to_string(c.messages),
                     Table::num(static_cast<double>(c.bytes) / 1.0e6, 2)});
    }
  }
  bench::emit_table(table);
  print_note(
      "The implicit operator needs no transpose and moves fewer bytes,\n"
      "but even with all lines batched into one distributed solve it stays\n"
      "root-serialised (the reduced interface systems are solved on one\n"
      "node) and keeps the filter's latitudinal load imbalance — the\n"
      "transpose + local FFT wins, which is exactly the design point the\n"
      "paper picked.\n");
}

void scheme_comparison() {
  Table table(
      "Ablation 4: load-balancing schemes (16 nodes, day/night-like loads)",
      {"Scheme", "imbalance before", "after", "messages", "items moved"});
  const int p = 16;
  const std::pair<lb::Scheme, const char*> schemes[] = {
      {lb::Scheme::kCyclic, "1: cyclic shuffle"},
      {lb::Scheme::kSortedGreedy, "2: sorted greedy"},
      {lb::Scheme::kPairwise, "3: pairwise x2"}};
  for (const auto& entry : schemes) {
    const lb::Scheme scheme = entry.first;
    simnet::Machine machine(simnet::MachineProfile::intel_paragon());
    machine.set_recv_timeout_ms(600'000);
    double before = 0.0, after = 0.0;
    std::vector<double> moved(static_cast<std::size_t>(p));
    const auto result = machine.run(p, [&](simnet::RankContext& ctx) {
      comm::Communicator world(ctx);
      // Day/night-style loads: half the ranks ~3x heavier, 80 items each.
      Rng rng(static_cast<std::uint64_t>(world.rank()) * 7 + 3);
      const double base = world.rank() < p / 2 ? 3.0 : 1.0;
      std::vector<lb::Item> items(80);
      std::vector<double> payloads(80 * 18);
      for (int q = 0; q < 80; ++q)
        items[static_cast<std::size_t>(q)] = {
            static_cast<std::uint64_t>(world.rank() * 1000 + q),
            base * rng.uniform(0.8, 1.2)};
      lb::PairwiseOptions options;
      options.max_iterations = 2;
      const lb::BalanceResult r =
          lb::balance(world, scheme, items, payloads, 18, options);
      int received = 0;
      for (const auto& origin : r.held_origins)
        if (origin.rank != world.rank()) ++received;
      moved[static_cast<std::size_t>(world.rank())] = received;
      if (world.rank() == 0) {
        before = r.imbalance_before;
        after = r.imbalance_after;
      }
    });
    trace::record_traffic(result);
    table.add_row({entry.second, Table::pct(before, 1), Table::pct(after, 1),
                   std::to_string(result.total_messages),
                   Table::num(sum(moved), 0)});
  }
  bench::emit_table(table);
  print_note(
      "Expected shape (Figures 4-6): scheme 1 balances well but moves\n"
      "(N-1)/N of all data with O(N^2) messages; scheme 2 moves the least\n"
      "but needs global item metadata; scheme 3 gets close to scheme 2's\n"
      "quality with only load exchanges plus pairwise transfers.");
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  auto opts = bench::BenchOptions::parse(argc, argv, "ablation_comm");
  bench::JsonReport report(opts);
  bench::g_report = &report;
  print_header("Ablation benches: communication structure and setup costs");
  const RingTreeSummary rt = ring_vs_tree();
  const LbGainSummary lb_gain = balanced_vs_plain();
  setup_cost();
  implicit_vs_spectral();
  scheme_comparison();
  // Machine-readable summary of the two headline ablations (validated by
  // tools/check_bench_json.py); everything is virtual-time deterministic.
  report.set("ring_vs_tree_msg_ratio", rt.msg_ratio);
  report.set("tree_more_bytes_than_ring", rt.tree_more_bytes);
  report.set("lb_gain_short_mesh", lb_gain.gain_short);
  report.set("lb_gain_tall_mesh", lb_gain.gain_tall);
  report.set("lb_gain_grows_with_rows",
             lb_gain.gain_tall > lb_gain.gain_short);
  report.finish();
  return 0;
}
