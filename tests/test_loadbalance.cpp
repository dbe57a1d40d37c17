// Tests for the load-balancing library: the planners (invariant properties
// swept over random load distributions) and the collective executors,
// including the result-return round trip, each scheme's message schedule
// and the Scheme-3 executor's agreement with its dry run, plan_pairwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include "comm/communicator.hpp"
#include "loadbalance/planner.hpp"
#include "loadbalance/schemes.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace agcm::lb {
namespace {

using comm::Communicator;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;
using simnet::Traffic;

/// A random item distribution: `p` ranks, roughly `per_rank` items each,
/// with a day/night-like two-population weight structure plus noise.
ItemLists random_items(int p, int per_rank, std::uint64_t seed) {
  Rng rng(seed);
  ItemLists lists(static_cast<std::size_t>(p));
  std::uint64_t id = 0;
  for (int r = 0; r < p; ++r) {
    const bool heavy_rank = rng.uniform() < 0.5;  // "daytime" ranks
    const int n = per_rank + static_cast<int>(rng.uniform_int(5));
    for (int q = 0; q < n; ++q) {
      const double base = heavy_rank ? 3.0 : 1.0;
      lists[static_cast<std::size_t>(r)].push_back(
          {id++, base * (0.8 + 0.4 * rng.uniform())});
    }
  }
  return lists;
}

double total_weight(const ItemLists& items) {
  double total = 0.0;
  for (const auto& list : items)
    for (const Item& item : list) total += item.weight;
  return total;
}

class PlannerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlannerSweep, AllPlannersConserveTotalLoad) {
  const int p = GetParam();
  const ItemLists items = random_items(p, 40, 1000 + static_cast<std::uint64_t>(p));
  const double total = total_weight(items);
  for (const DestLists& dest :
       {plan_cyclic(items), plan_sorted_greedy(items),
        plan_pairwise(items).dest}) {
    const auto loads = loads_after(items, dest);
    EXPECT_NEAR(sum(loads), total, 1e-9 * total);
  }
}

TEST_P(PlannerSweep, SortedGreedyImprovesImbalance) {
  const int p = GetParam();
  if (p < 2) return;
  const ItemLists items = random_items(p, 40, 2000 + static_cast<std::uint64_t>(p));
  const double before = load_imbalance(loads_of(items));
  const double after = load_imbalance(loads_after(items, plan_sorted_greedy(items)));
  EXPECT_LE(after, before + 1e-12);
}

TEST_P(PlannerSweep, PairwiseImbalanceNonIncreasingPerIteration) {
  const int p = GetParam();
  if (p < 2) return;
  const ItemLists items = random_items(p, 40, 3000 + static_cast<std::uint64_t>(p));
  PairwiseOptions options;
  options.max_iterations = 4;
  const auto result = plan_pairwise(items, options);
  ASSERT_EQ(result.loads.size(),
            static_cast<std::size_t>(result.iterations) + 1);
  const auto after = loads_after(items, result.dest);
  for (std::size_t r = 0; r < after.size(); ++r)
    EXPECT_NEAR(result.loads.back()[r], after[r], 1e-9 * after[r]);
  for (std::size_t i = 1; i < result.loads.size(); ++i)
    EXPECT_LE(load_imbalance(result.loads[i]),
              load_imbalance(result.loads[i - 1]) + 0.02);
  // With fine-grained items, two iterations should reach the low teens at
  // worst — the paper's Tables 1-3 land at 5-12.5% on real loads.
  if (result.loads.size() >= 3) {
    EXPECT_LT(load_imbalance(result.loads[2]), 0.16);
  }
}

TEST_P(PlannerSweep, CyclicBalancesUniformItems) {
  const int p = GetParam();
  // Uniform weights, identical counts: cyclic shuffle must balance almost
  // perfectly (the paper's stated guarantee for near-uniform local loads).
  ItemLists items(static_cast<std::size_t>(p));
  std::uint64_t id = 0;
  for (auto& list : items)
    for (int q = 0; q < 4 * p; ++q) list.push_back({id++, 1.0});
  const auto loads = loads_after(items, plan_cyclic(items));
  EXPECT_LT(load_imbalance(loads), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PlannerSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16, 32, 64));

/// Figure 5/6's loads 65, 24, 38, 15 as one unit-weight item per unit, so
/// every pick is among tied weights.
ItemLists figure5_items() {
  ItemLists items(4);
  const int loads[] = {65, 24, 38, 15};
  std::uint64_t id = 0;
  for (std::size_t r = 0; r < 4; ++r)
    for (int u = 0; u < loads[r]; ++u) items[r].push_back({id++, 1.0});
  return items;
}

TEST(Planners, PaperFigure5Example) {
  // avg = 35.5; greedy should land everyone within one unit of it.
  const ItemLists items = figure5_items();
  const auto after = loads_after(items, plan_sorted_greedy(items));
  for (double l : after) EXPECT_NEAR(l, 35.5, 1.0);
}

TEST(Planners, PaperFigure6PairwiseTwoRounds) {
  // Same initial distribution; two rounds of scheme 3 reach Figure 6D's
  // (36, 35, 35, 36), within the 2% tolerance, so a third never starts.
  const auto result = plan_pairwise(figure5_items());
  EXPECT_EQ(result.iterations, 2);
  EXPECT_EQ(result.loads.back(), (std::vector<double>{36, 35, 35, 36}));
  PairwiseOptions options;
  options.max_iterations = 3;
  EXPECT_EQ(plan_pairwise(figure5_items(), options).iterations, 2);
}

TEST(Planners, EmptyRanksAreHandled) {
  ItemLists items(3);
  items[0].push_back({0, 10.0});
  items[0].push_back({1, 10.0});
  const auto result = plan_pairwise(items);
  const auto after = loads_after(items, result.dest);
  EXPECT_LT(load_imbalance(after), load_imbalance(loads_of(items)));
}

TEST(Planners, PickHeaviestGoesHeaviestFirstWithTiesByPosition) {
  // Order 1, 2, 3, 0: takes 1 (3 <= 5), then 2 overshoots by 1 < 2 left,
  // so it is taken and the pick stops.
  const std::vector<double> weights{1.0, 3.0, 3.0, 2.0};
  EXPECT_EQ(pick_heaviest(weights, 5.0), (std::vector<std::size_t>{1, 2}));
  // The two 3s fill 6 exactly; a further item only moves away from it.
  EXPECT_EQ(pick_heaviest(weights, 6.0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(pick_heaviest(weights, 100.0),
            (std::vector<std::size_t>{1, 2, 3, 0}));
  EXPECT_EQ(pick_heaviest(weights, 0.4), std::vector<std::size_t>{});
}

TEST(Planners, DestinationsAreValidRanks) {
  const ItemLists items = random_items(8, 20, 99);
  for (const DestLists& dest :
       {plan_cyclic(items), plan_sorted_greedy(items),
        plan_pairwise(items).dest}) {
    for (std::size_t r = 0; r < dest.size(); ++r) {
      ASSERT_EQ(dest[r].size(), items[r].size());
      for (int d : dest[r]) {
        EXPECT_GE(d, 0);
        EXPECT_LT(d, 8);
      }
    }
  }
}

// --- collective executors ---------------------------------------------------

TEST(Collective, PairwiseBalanceMovesRealPayloads) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 6;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Rank r: (r+1)*8 items of weight (r+1) — strongly imbalanced.
    const int n = 8 * (comm.rank() + 1);
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads;
    for (int q = 0; q < n; ++q) {
      const auto id = static_cast<std::uint64_t>(comm.rank()) * 1000 +
                      static_cast<std::uint64_t>(q);
      items[static_cast<std::size_t>(q)] = {id, 1.0 * (comm.rank() + 1)};
      payloads.push_back(static_cast<double>(id));
      payloads.push_back(static_cast<double>(id) + 0.5);
    }
    PairwiseOptions options;
    options.max_iterations = 3;
    const BalanceResult result =
        balance(comm, Scheme::kPairwise, items, payloads, 2, options);
    EXPECT_LT(result.imbalance_after, result.imbalance_before);
    // Payloads stay attached to their items.
    for (std::size_t q = 0; q < result.held_items.size(); ++q) {
      EXPECT_DOUBLE_EQ(result.held_payloads[2 * q],
                       static_cast<double>(result.held_items[q].id));
      EXPECT_DOUBLE_EQ(result.held_payloads[2 * q + 1],
                       static_cast<double>(result.held_items[q].id) + 0.5);
    }
    // Global item conservation.
    const double held =
        comm.allreduce_sum(static_cast<double>(result.held_items.size()));
    const double expected = comm.allreduce_sum(static_cast<double>(n));
    EXPECT_DOUBLE_EQ(held, expected);
  });
}

TEST(Collective, ReturnToOwnersRestoresOriginalOrder) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 5;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int n = 10 + 3 * comm.rank();
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads(static_cast<std::size_t>(n));
    Rng rng(static_cast<std::uint64_t>(comm.rank()) + 5);
    for (int q = 0; q < n; ++q) {
      items[static_cast<std::size_t>(q)] = {
          static_cast<std::uint64_t>(comm.rank()) * 100 +
              static_cast<std::uint64_t>(q),
          rng.uniform(0.5, 4.0)};
      payloads[static_cast<std::size_t>(q)] = 1000.0 * comm.rank() + q;
    }
    const BalanceResult result =
        balance(comm, Scheme::kPairwise, items, payloads, 1);
    // "Process": result = payload * 2 + 1.
    std::vector<double> processed(result.held_items.size());
    for (std::size_t q = 0; q < processed.size(); ++q)
      processed[q] = result.held_payloads[q] * 2.0 + 1.0;
    const auto mine = return_to_owners(comm, result, processed, 1, n);
    ASSERT_EQ(static_cast<int>(mine.size()), n);
    for (int q = 0; q < n; ++q)
      EXPECT_DOUBLE_EQ(mine[static_cast<std::size_t>(q)],
                       (1000.0 * comm.rank() + q) * 2.0 + 1.0);
  });
}

TEST(Collective, CyclicExecutorBalancesCounts) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 4;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int n = 12;  // divisible by p: perfect count balance
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads(static_cast<std::size_t>(n), 1.0);
    for (int q = 0; q < n; ++q)
      items[static_cast<std::size_t>(q)] = {
          static_cast<std::uint64_t>(comm.rank() * 100 + q), 1.0};
    const auto result = balance(comm, Scheme::kCyclic, items, payloads, 1);
    EXPECT_EQ(result.held_items.size(), static_cast<std::size_t>(n));
    EXPECT_NEAR(result.imbalance_after, 0.0, 1e-12);
  });
}

TEST(Collective, SortedGreedyExecutorImproves) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 4;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Figure 5's loads, one unit per item.
    const int loads[] = {65, 24, 38, 15};
    const int n = loads[comm.rank()];
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads(static_cast<std::size_t>(n), 0.0);
    for (int q = 0; q < n; ++q)
      items[static_cast<std::size_t>(q)] = {
          static_cast<std::uint64_t>(comm.rank() * 100 + q), 1.0};
    const auto result =
        balance(comm, Scheme::kSortedGreedy, items, payloads, 1);
    EXPECT_NEAR(result.imbalance_before, (65.0 - 35.5) / 35.5, 1e-9);
    EXPECT_LT(result.imbalance_after, 0.05);
  });
}

TEST(Collective, MigrationRoutesPayloadsWithItems) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  machine.run(3, [&](RankContext& ctx) {
    Communicator comm(ctx);
    std::vector<Item> items{{static_cast<std::uint64_t>(comm.rank()), 2.0}};
    std::vector<double> payloads{static_cast<double>(comm.rank())};
    std::vector<int> dest{(comm.rank() + 1) % 3};
    const auto result = execute_migration(comm, items, payloads, 1, dest);
    ASSERT_EQ(result.held_items.size(), 1u);
    EXPECT_EQ(static_cast<int>(result.held_items[0].id),
              (comm.rank() + 2) % 3);
    EXPECT_DOUBLE_EQ(result.held_payloads[0],
                     static_cast<double>((comm.rank() + 2) % 3));
    EXPECT_EQ(result.held_origins[0].rank, (comm.rank() + 2) % 3);
  });
}

TEST(Collective, BalanceRejectsSchemeNone) {
  Machine machine(MachineProfile::ideal());
  machine.run(1, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const std::vector<Item> items{{0, 1.0}};
    const std::vector<double> payloads{0.0};
    EXPECT_THROW(balance(comm, Scheme::kNone, items, payloads, 1),
                 ConfigError);
  });
}

// --- message schedules ------------------------------------------------------

/// Ablation 4's inputs (bench_ablation_comm): 16 Paragon ranks of 80 items,
/// the first half ~3x heavier, 18 doubles per item and 19 per result.
/// Returns the sum over ranks of each rank's ledger delta across
/// lb::balance (forward) and across return_to_owners (back).
std::pair<Traffic, Traffic> scheme_traffic(Scheme scheme, int workers) {
  const int p = 16;
  Machine machine(MachineProfile::intel_paragon());
  machine.set_workers(workers);
  machine.set_recv_timeout_ms(60'000);
  std::vector<Traffic> forward(p), back(p);
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    Rng rng(static_cast<std::uint64_t>(comm.rank()) * 7 + 3);
    const double base = comm.rank() < p / 2 ? 3.0 : 1.0;
    std::vector<Item> items(80);
    std::vector<double> payloads(80 * 18);
    for (int q = 0; q < 80; ++q)
      items[static_cast<std::size_t>(q)] = {
          static_cast<std::uint64_t>(comm.rank() * 1000 + q),
          base * rng.uniform(0.8, 1.2)};
    const Traffic t0 = ctx.traffic();
    const BalanceResult held = balance(comm, scheme, items, payloads, 18);
    const Traffic t1 = ctx.traffic();
    const std::vector<double> results(held.held_items.size() * 19);
    (void)return_to_owners(comm, held, results, 19, 80);
    forward[static_cast<std::size_t>(comm.rank())] = t1 - t0;
    back[static_cast<std::size_t>(comm.rank())] = ctx.traffic() - t1;
  });
  Traffic fwd, ret;
  for (int r = 0; r < p; ++r) {
    fwd += forward[static_cast<std::size_t>(r)];
    ret += back[static_cast<std::size_t>(r)];
  }
  return {fwd, ret};
}

class SchemeSchedule
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(SchemeSchedule, MessagesAndBytesArePinned) {
  // The executors' costs, counted once per message in the sending and in
  // the receiving rank. Scheme 3's return trip costs 3x its forward moves:
  // 240 of its 256 return messages are return_to_owners' one-int counts.
  struct Pinned {
    std::uint64_t fwd_msgs, fwd_bytes, ret_msgs, ret_bytes;
  };
  const auto [scheme, workers] = GetParam();
  const Pinned want = scheme == Scheme::kCyclic
                          ? Pinned{1020, 206'640, 720, 188'160}
                      : scheme == Scheme::kSortedGreedy
                          ? Pinned{405, 364'044, 270, 30'288}
                          : Pinned{84, 35'664, 256, 30'288};
  const auto [fwd, ret] = scheme_traffic(scheme, workers);
  EXPECT_EQ(fwd.messages_sent, want.fwd_msgs);
  EXPECT_EQ(fwd.messages_recv, want.fwd_msgs);
  EXPECT_EQ(fwd.bytes_sent, want.fwd_bytes);
  EXPECT_EQ(fwd.bytes_recv, want.fwd_bytes);
  EXPECT_EQ(ret.messages_sent, want.ret_msgs);
  EXPECT_EQ(ret.messages_recv, want.ret_msgs);
  EXPECT_EQ(ret.bytes_sent, want.ret_bytes);
  EXPECT_EQ(ret.bytes_recv, want.ret_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeSchedule,
    ::testing::Combine(::testing::Values(Scheme::kCyclic,
                                         Scheme::kSortedGreedy,
                                         Scheme::kPairwise),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      std::string name = scheme_name(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_w" + std::to_string(std::get<1>(info.param));
    });

// --- planner/executor agreement -------------------------------------------

/// Rank r's 40 items with distinct weights, the first half ~3x heavier;
/// ids r*1000+q. Every rank can rebuild every rank's list.
std::vector<Item> distinct_items(int p, int r) {
  Rng rng(static_cast<std::uint64_t>(r) * 7 + 3);
  const double base = r < p / 2 ? 3.0 : 1.0;
  std::vector<Item> items(40);
  for (int q = 0; q < 40; ++q)
    items[static_cast<std::size_t>(q)] = {
        static_cast<std::uint64_t>(r * 1000 + q), base * rng.uniform(0.8, 1.2)};
  return items;
}

/// plan_pairwise and balance(kPairwise) run on the same items.
struct Agreement {
  /// Ids some rank holds after the executor although the planner puts them
  /// on another rank, sorted.
  std::vector<std::uint64_t> held_elsewhere;
  int planner_iterations = 0;
  int executor_iterations = 0;
  std::vector<double> planner_loads;   ///< the planner's final loads
  std::vector<double> executor_loads;  ///< each rank's held load
};

Agreement run_both(const ItemLists& lists, int rounds) {
  const int p = static_cast<int>(lists.size());
  PairwiseOptions options;
  options.max_iterations = rounds;
  const PairwiseResult plan = plan_pairwise(lists, options);
  std::map<std::uint64_t, int> planned;
  double items = 0.0;
  for (std::size_t r = 0; r < lists.size(); ++r)
    for (std::size_t q = 0; q < lists[r].size(); ++q) {
      planned[lists[r][q].id] = plan.dest[r][q];
      items += 1.0;
    }
  Agreement both;
  both.planner_iterations = plan.iterations;
  both.planner_loads = plan.loads.back();
  both.executor_loads.assign(lists.size(), 0.0);
  std::vector<std::vector<std::uint64_t>> elsewhere(lists.size());
  Machine machine(MachineProfile::intel_paragon());
  machine.set_recv_timeout_ms(60'000);
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const auto me = static_cast<std::size_t>(comm.rank());
    const std::vector<double> payloads(lists[me].size());
    const BalanceResult held =
        balance(comm, Scheme::kPairwise, lists[me], payloads, 1, options);
    for (const Item& item : held.held_items) {
      if (planned.at(item.id) != comm.rank())
        elsewhere[me].push_back(item.id);
      both.executor_loads[me] += item.weight;
    }
    EXPECT_EQ(comm.allreduce_sum(static_cast<double>(held.held_items.size())),
              items);
    if (me == 0) both.executor_iterations = held.iterations;
  });
  for (const auto& list : elsewhere)
    both.held_elsewhere.insert(both.held_elsewhere.end(), list.begin(),
                               list.end());
  std::sort(both.held_elsewhere.begin(), both.held_elsewhere.end());
  return both;
}

class PlannerAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlannerAgreement, ExecutorHoldsThePlannedItems) {
  // Every item is held once, so no id held elsewhere means every rank
  // holds exactly the ids plan_pairwise assigns to it. Both stop on the
  // same rule: at P=6 the 1.7% left after round 1 is within tolerance.
  const auto [p, rounds] = GetParam();
  ItemLists lists;
  for (int r = 0; r < p; ++r) lists.push_back(distinct_items(p, r));
  const Agreement both = run_both(lists, rounds);
  EXPECT_EQ(both.held_elsewhere, std::vector<std::uint64_t>{});
  EXPECT_EQ(both.executor_iterations, both.planner_iterations);
  EXPECT_EQ(both.executor_loads, both.planner_loads);
}

INSTANTIATE_TEST_SUITE_P(
    RankCountsAndRounds, PlannerAgreement,
    ::testing::Combine(::testing::Values(2, 6, 8, 16),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return "P" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PlannerAgreement, TiedWeightsPickTheSameItems) {
  // Figure 5/6's unit items: every pick is among equal weights, so the two
  // hold the same ids only if they pick in the same (held) order.
  for (int rounds : {1, 2, 3}) {
    const Agreement both = run_both(figure5_items(), rounds);
    EXPECT_EQ(both.held_elsewhere, std::vector<std::uint64_t>{})
        << rounds << " rounds";
    EXPECT_EQ(both.executor_iterations, both.planner_iterations);
    EXPECT_EQ(both.executor_loads, both.planner_loads);
    if (rounds >= 2) {
      EXPECT_EQ(both.executor_loads, (std::vector<double>{36, 35, 35, 36}));
    }
  }
}

}  // namespace
}  // namespace agcm::lb
