#include "loadbalance/planner.hpp"

#include <algorithm>
#include <cmath>

#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace agcm::lb {

namespace {

constexpr int kTagItems = 410;
constexpr int kTagOrigins = 411;
constexpr int kTagPayloads = 412;

/// This rank's own items as a held set, in original order.
BalanceResult hold_own(int me, std::span<const Item> items,
                       std::span<const double> payloads,
                       int doubles_per_item) {
  AGCM_ASSERT(payloads.size() ==
              items.size() * static_cast<std::size_t>(doubles_per_item));
  BalanceResult held;
  held.held_items.assign(items.begin(), items.end());
  held.held_payloads.assign(payloads.begin(), payloads.end());
  for (std::size_t q = 0; q < items.size(); ++q)
    held.held_origins.push_back({me, static_cast<int>(q)});
  return held;
}

/// The total weight of `held`, summed in held order.
double held_load(std::span<const Item> held) {
  double load = 0.0;
  for (const Item& item : held) load += item.weight;
  return load;
}

/// Every rank's total held load: one allgatherv of one double per rank.
std::vector<double> gather_loads(const comm::Communicator& comm,
                                 std::span<const Item> held) {
  const double my_load = held_load(held);
  const std::vector<int> ones(static_cast<std::size_t>(comm.size()), 1);
  return comm.allgatherv<double>(std::span<const double>(&my_load, 1), ones);
}

/// Splits `held` in one pass: the items at `picked` move out into the
/// returned set in pick order; the rest stay in `held` in held order.
BalanceResult split_held(BalanceResult& held,
                         std::span<const std::size_t> picked,
                         int doubles_per_item) {
  const std::size_t n = held.held_items.size();
  const auto dpi = static_cast<std::size_t>(doubles_per_item);
  std::vector<std::size_t> slot(n, n);  // n: kept
  for (std::size_t s = 0; s < picked.size(); ++s) slot[picked[s]] = s;
  BalanceResult ship;
  ship.held_items.resize(picked.size());
  ship.held_origins.resize(picked.size());
  ship.held_payloads.resize(picked.size() * dpi);
  std::size_t kept = 0;
  for (std::size_t q = 0; q < n; ++q) {
    BalanceResult& to = slot[q] < n ? ship : held;
    const std::size_t at = slot[q] < n ? slot[q] : kept++;
    if (&to == &held && at == q) continue;
    to.held_items[at] = held.held_items[q];
    to.held_origins[at] = held.held_origins[q];
    std::copy_n(held.held_payloads.data() + q * dpi, dpi,
                to.held_payloads.data() + at * dpi);
  }
  held.held_items.resize(kept);
  held.held_origins.resize(kept);
  held.held_payloads.resize(kept * dpi);
  return ship;
}

/// Appends received items with their origins and payloads to `held`.
void append_held(BalanceResult& held, std::span<const Item> items,
                 std::span<const Origin> origins,
                 std::span<const double> payloads, int doubles_per_item) {
  AGCM_ASSERT(items.size() == origins.size());
  AGCM_ASSERT(payloads.size() ==
              items.size() * static_cast<std::size_t>(doubles_per_item));
  held.held_items.insert(held.held_items.end(), items.begin(), items.end());
  held.held_origins.insert(held.held_origins.end(), origins.begin(),
                           origins.end());
  held.held_payloads.insert(held.held_payloads.end(), payloads.begin(),
                            payloads.end());
}

/// Positions 0..n-1 grouped by `rank_of(q)`: ranks in order, positions
/// ascending within a rank; a position whose rank is -1 is left out.
struct RankGroups {
  std::vector<std::size_t> order;
  std::vector<int> counts;  ///< positions per rank
};

template <typename RankOf>
RankGroups group_by_rank(int p, std::size_t n, RankOf rank_of) {
  std::vector<std::vector<std::size_t>> by_rank(static_cast<std::size_t>(p));
  for (std::size_t q = 0; q < n; ++q)
    if (const int r = rank_of(q); r >= 0)
      by_rank[static_cast<std::size_t>(r)].push_back(q);
  RankGroups groups;
  for (const auto& group : by_rank) {
    groups.order.insert(groups.order.end(), group.begin(), group.end());
    groups.counts.push_back(static_cast<int>(group.size()));
  }
  return groups;
}

std::vector<int> scaled(std::vector<int> counts, int factor) {
  for (int& c : counts) c *= factor;
  return counts;
}

/// Scheme 1 (Figure 4): cyclic shuffle — item q of rank r moves to rank
/// (r + q) mod N. Needs no load information at all, but costs O(N^2)
/// messages in aggregate.
BalanceResult balance_cyclic(const comm::Communicator& comm,
                             std::span<const Item> my_items,
                             std::span<const double> my_payloads,
                             int doubles_per_item) {
  const int p = comm.size();
  std::vector<int> dest(my_items.size());
  for (std::size_t q = 0; q < my_items.size(); ++q)
    dest[q] = static_cast<int>(
        (static_cast<std::size_t>(comm.rank()) + q) % static_cast<std::size_t>(p));
  return execute_migration(comm, my_items, my_payloads, doubles_per_item,
                           dest);
}

/// Scheme 2 (Figure 5): sorted greedy surplus moves. Requires global item
/// metadata on every rank (the allgather is the "number of global
/// communications and a substantial amount of local bookkeeping" the paper
/// criticises), then executes the moves with O(N) transfers.
BalanceResult balance_sorted_greedy(const comm::Communicator& comm,
                                    std::span<const Item> my_items,
                                    std::span<const double> my_payloads,
                                    int doubles_per_item) {
  const int p = comm.size();
  const int my_count = static_cast<int>(my_items.size());
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);
  const std::vector<int> counts = comm.allgatherv<int>(
      std::span<const int>(&my_count, 1), ones);
  const std::vector<Item> all_items = comm.allgatherv<Item>(my_items, counts);

  ItemLists lists(static_cast<std::size_t>(p));
  std::size_t pos = 0;
  for (int r = 0; r < p; ++r) {
    const auto n = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
    lists[static_cast<std::size_t>(r)].assign(
        all_items.begin() + static_cast<std::ptrdiff_t>(pos),
        all_items.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
  }
  const DestLists dest = plan_sorted_greedy(lists);
  // Bookkeeping cost: the whole plan is recomputed on every node.
  comm.charge_flops(30.0 * static_cast<double>(all_items.size()));
  return execute_migration(comm, my_items, my_payloads, doubles_per_item,
                           dest[static_cast<std::size_t>(comm.rank())]);
}

/// Scheme 3 (Figure 6): iterative sorted pairwise exchange. Per iteration
/// only the per-rank total loads travel globally; items move between
/// sorted partners.
BalanceResult balance_pairwise(const comm::Communicator& comm,
                               std::span<const Item> my_items,
                               std::span<const double> my_payloads,
                               int doubles_per_item,
                               PairwiseOptions options) {
  const int p = comm.size();
  const int me = comm.rank();
  BalanceResult result = hold_own(me, my_items, my_payloads, doubles_per_item);

  for (int iter = 0; iter <= options.max_iterations; ++iter) {
    const std::vector<double> loads = gather_loads(comm, result.held_items);
    const double imbalance = load_imbalance(loads);
    if (iter == 0) result.imbalance_before = imbalance;
    result.imbalance_after = imbalance;
    if (trace::enabled()) {
      // Per-iteration imbalance, visible as a counter track in the Chrome
      // trace and as a gauge/distribution in the metrics registry.
      trace::Tracer::instance().counter(me, "lb.imbalance",
                                        comm.now(), imbalance);
      trace::MetricsRegistry::instance().set_gauge("lb.imbalance", me,
                                                   imbalance);
      trace::MetricsRegistry::instance().observe("lb.imbalance", imbalance);
    }
    if (options.stops(iter, imbalance)) break;

    // Every rank derives the same pairs from the gathered loads and acts on
    // the one it is in; the median of an odd rank count is in none.
    comm.charge_flops(static_cast<double>(p) *
                      std::log2(std::max(2.0, static_cast<double>(p))));
    result.iterations = iter + 1;
    for (const RankPair& pair : sorted_pairs(loads)) {
      if (pair.heavy == me) {
        // The heavier side: pick and ship (possibly nothing).
        const BalanceResult ship = split_held(
            result,
            pick_pair_share(result.held_items, loads, pair, options.tolerance),
            doubles_per_item);
        if (trace::enabled() && !ship.held_items.empty()) {
          trace::MetricsRegistry::instance().add(
              "lb.items_moved", me,
              static_cast<double>(ship.held_items.size()));
        }
        comm.send<Item>(pair.light, kTagItems, ship.held_items);
        comm.send<Origin>(pair.light, kTagOrigins, ship.held_origins);
        comm.send<double>(pair.light, kTagPayloads, ship.held_payloads);
      } else if (pair.light == me) {
        // The lighter side: receive (possibly empty) shipments.
        const auto items = comm.recv_view<Item>(pair.heavy, kTagItems);
        const auto origins = comm.recv_view<Origin>(pair.heavy, kTagOrigins);
        const auto payloads = comm.recv_view<double>(pair.heavy, kTagPayloads);
        append_held(result, items, origins, payloads, doubles_per_item);
      }
    }
  }
  return result;
}

}  // namespace

BalanceResult balance(const comm::Communicator& comm, Scheme scheme,
                      std::span<const Item> my_items,
                      std::span<const double> my_payloads,
                      int doubles_per_item, PairwiseOptions options) {
  switch (scheme) {
    case Scheme::kCyclic:
      return balance_cyclic(comm, my_items, my_payloads, doubles_per_item);
    case Scheme::kSortedGreedy:
      return balance_sorted_greedy(comm, my_items, my_payloads,
                                   doubles_per_item);
    case Scheme::kPairwise:
      return balance_pairwise(comm, my_items, my_payloads, doubles_per_item,
                              options);
    case Scheme::kNone:
      break;
  }
  throw ConfigError("lb::balance: scheme 'none' balances nothing");
}

PairwiseResult plan_pairwise(const ItemLists& items,
                             PairwiseOptions options) {
  PairwiseResult result;
  std::vector<BalanceResult> held;
  for (std::size_t r = 0; r < items.size(); ++r) {
    held.push_back(hold_own(static_cast<int>(r), items[r], {}, 0));
    result.dest.emplace_back(items[r].size());
  }
  for (int iter = 0;; ++iter) {
    std::vector<double>& loads = result.loads.emplace_back();
    for (const auto& h : held) loads.push_back(held_load(h.held_items));
    if (options.stops(iter, load_imbalance(loads))) break;
    result.iterations = iter + 1;
    for (const RankPair& pair : sorted_pairs(loads)) {
      BalanceResult& from = held[static_cast<std::size_t>(pair.heavy)];
      const BalanceResult ship = split_held(
          from,
          pick_pair_share(from.held_items, loads, pair, options.tolerance), 0);
      append_held(held[static_cast<std::size_t>(pair.light)], ship.held_items,
                  ship.held_origins, {}, 0);
    }
  }
  for (std::size_t r = 0; r < held.size(); ++r)
    for (const Origin& o : held[r].held_origins)
      result.dest[static_cast<std::size_t>(o.rank)]
                 [static_cast<std::size_t>(o.index)] = static_cast<int>(r);
  return result;
}

BalanceResult execute_migration(const comm::Communicator& comm,
                                std::span<const Item> my_items,
                                std::span<const double> my_payloads,
                                int doubles_per_item,
                                std::span<const int> my_dest) {
  const int p = comm.size();
  const int me = comm.rank();
  AGCM_ASSERT(my_dest.size() == my_items.size());
  BalanceResult result = hold_own(me, my_items, my_payloads, doubles_per_item);
  result.imbalance_before =
      load_imbalance(gather_loads(comm, result.held_items));

  // Ship every item that leaves, grouped by destination; exchange the
  // per-pair item counts, then the items, origins and payloads.
  const RankGroups out = group_by_rank(p, my_dest.size(), [&](std::size_t q) {
    AGCM_ASSERT(my_dest[q] >= 0 && my_dest[q] < p);
    return my_dest[q] == me ? -1 : my_dest[q];
  });
  const BalanceResult ship = split_held(result, out.order, doubles_per_item);
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);
  const std::vector<int> in = comm.alltoallv<int>(out.counts, ones, ones);
  const auto items = comm.alltoallv<Item>(ship.held_items, out.counts, in);
  const auto origins =
      comm.alltoallv<Origin>(ship.held_origins, out.counts, in);
  const auto payloads = comm.alltoallv<double>(
      ship.held_payloads, scaled(out.counts, doubles_per_item),
      scaled(in, doubles_per_item));
  append_held(result, items, origins, payloads, doubles_per_item);

  result.imbalance_after =
      load_imbalance(gather_loads(comm, result.held_items));
  result.iterations = 1;
  return result;
}

std::vector<double> return_to_owners(const comm::Communicator& comm,
                                     const BalanceResult& held,
                                     std::span<const double> held_results,
                                     int doubles_per_result,
                                     int my_item_count) {
  const int p = comm.size();
  const auto dpr = static_cast<std::size_t>(doubles_per_result);
  AGCM_ASSERT(held_results.size() == held.held_items.size() * dpr);

  const RankGroups home =
      group_by_rank(p, held.held_origins.size(), [&](std::size_t q) {
        return held.held_origins[q].rank;
      });
  std::vector<int> send_indices;
  std::vector<double> send_data;
  for (std::size_t q : home.order) {
    send_indices.push_back(held.held_origins[q].index);
    send_data.insert(send_data.end(), held_results.data() + q * dpr,
                     held_results.data() + (q + 1) * dpr);
  }

  // Every rank must know how many items come back from each peer: exchange
  // the counts first (one int per pair), then the indices and the data.
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);
  const std::vector<int> in = comm.alltoallv<int>(home.counts, ones, ones);
  const std::vector<int> indices =
      comm.alltoallv<int>(send_indices, home.counts, in);
  const std::vector<double> data =
      comm.alltoallv<double>(send_data, scaled(home.counts, doubles_per_result),
                             scaled(in, doubles_per_result));

  AGCM_ASSERT(static_cast<int>(indices.size()) == my_item_count);
  std::vector<double> out(static_cast<std::size_t>(my_item_count) * dpr);
  for (std::size_t n = 0; n < indices.size(); ++n) {
    const auto idx = static_cast<std::size_t>(indices[n]);
    AGCM_ASSERT(idx < static_cast<std::size_t>(my_item_count));
    std::copy_n(data.data() + n * dpr, dpr, out.data() + idx * dpr);
  }
  return out;
}

}  // namespace agcm::lb
