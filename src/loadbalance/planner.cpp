#include "loadbalance/planner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"
#include "util/stats.hpp"

namespace agcm::lb {

namespace {

constexpr int kTagItems = 410;
constexpr int kTagOrigins = 411;
constexpr int kTagPayloads = 412;

/// The executors' scratch, one per rank (util::rank_local: fibers park in
/// the collectives). Every vector only grows: a repeated step allocates 0.
struct Scratch {
  std::vector<double> loads;             ///< gathered per-rank held loads
  std::vector<int> ones, order, dest;    ///< P ones; ranks_by_load; Scheme 1
  std::vector<RankPair> pairs;
  std::vector<std::size_t> picks, slot;  ///< positions to ship; split map
  BalanceResult ship;                    ///< the shipped set
  std::vector<int> counts;               ///< Scheme 2's gathered metadata
  std::vector<Item> all_items;
  ItemLists lists;
  std::vector<std::size_t> group, cursor;  ///< group_by_rank
  std::vector<int> out, in;              ///< per-peer counts sent, received
  std::vector<int> send_indices, recv_indices;  ///< return_to_owners
  std::vector<double> send_data, recv_data;

  std::span<const int> ones_of(int p) {
    ones.assign(static_cast<std::size_t>(p), 1);
    return ones;
  }
};

std::size_t total(std::span<const int> counts) {
  return static_cast<std::size_t>(
      std::accumulate(counts.begin(), counts.end(), 0));
}

/// Makes `held` this rank's own items, in original order.
void hold_own(int me, std::span<const Item> items,
              std::span<const double> payloads, int doubles_per_item,
              BalanceResult& held) {
  AGCM_ASSERT(payloads.size() ==
              items.size() * static_cast<std::size_t>(doubles_per_item));
  held.held_items.assign(items.begin(), items.end());
  held.held_payloads.assign(payloads.begin(), payloads.end());
  held.held_origins.resize(items.size());
  for (std::size_t q = 0; q < items.size(); ++q)
    held.held_origins[q] = {me, static_cast<int>(q)};
  held.imbalance_before = held.imbalance_after = 0.0;
  held.iterations = 0;
}

void resize_held(BalanceResult& held, std::size_t n, std::size_t dpi) {
  held.held_items.resize(n);
  held.held_origins.resize(n);
  held.held_payloads.resize(n * dpi);
}

/// The total weight of `held`, summed in held order.
double held_load(std::span<const Item> held) {
  double load = 0.0;
  for (const Item& item : held) load += item.weight;
  return load;
}

/// Every rank's total held load: one allgatherv of one double per rank.
std::span<const double> gather_loads(const comm::Communicator& comm,
                                     std::span<const Item> held, Scratch& s) {
  const double my_load = held_load(held);
  s.loads.resize(static_cast<std::size_t>(comm.size()));
  comm.allgatherv_into<double>(std::span<const double>(&my_load, 1),
                               s.ones_of(comm.size()), s.loads);
  return s.loads;
}

/// Splits `held` in one pass: the items at `picked` move out into s.ship
/// in pick order; the rest stay in `held` in held order.
void split_held(BalanceResult& held, std::span<const std::size_t> picked,
                int doubles_per_item, Scratch& s) {
  const std::size_t n = held.held_items.size();
  const auto dpi = static_cast<std::size_t>(doubles_per_item);
  s.slot.assign(n, n);  // n: kept
  for (std::size_t at = 0; at < picked.size(); ++at) s.slot[picked[at]] = at;
  resize_held(s.ship, picked.size(), dpi);
  std::size_t kept = 0;
  for (std::size_t q = 0; q < n; ++q) {
    BalanceResult& to = s.slot[q] < n ? s.ship : held;
    const std::size_t at = s.slot[q] < n ? s.slot[q] : kept++;
    if (&to == &held && at == q) continue;
    to.held_items[at] = held.held_items[q];
    to.held_origins[at] = held.held_origins[q];
    std::copy_n(held.held_payloads.data() + q * dpi, dpi,
                to.held_payloads.data() + at * dpi);
  }
  resize_held(held, kept, dpi);
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

/// Positions 0..n-1 grouped by `rank_of(q)` (-1: left out) in a counting
/// pass: per-rank counts in s.out, positions in rank order in s.group.
template <typename RankOf>
void group_by_rank(Scratch& s, int p, std::size_t n, RankOf rank_of) {
  s.out.assign(static_cast<std::size_t>(p), 0);
  for (std::size_t q = 0; q < n; ++q)
    if (const int r = rank_of(q); r >= 0) ++s.out[static_cast<std::size_t>(r)];
  s.cursor.resize(s.out.size());
  std::exclusive_scan(s.out.begin(), s.out.end(), s.cursor.begin(),
                      std::size_t{0});
  s.group.resize(total(s.out));
  for (std::size_t q = 0; q < n; ++q)
    if (const int r = rank_of(q); r >= 0)
      s.group[s.cursor[static_cast<std::size_t>(r)]++] = q;
}

/// Scheme 1 (Figure 4): cyclic shuffle — item q of rank r moves to rank
/// (r + q) mod N. Needs no load information at all, but costs O(N^2)
/// messages in aggregate.
void balance_cyclic(const comm::Communicator& comm,
                    std::span<const Item> my_items,
                    std::span<const double> my_payloads, int doubles_per_item,
                    BalanceResult& held) {
  Scratch& s = util::rank_local<Scratch>();
  s.dest.resize(my_items.size());
  for (std::size_t q = 0; q < my_items.size(); ++q)
    s.dest[q] = static_cast<int>((static_cast<std::size_t>(comm.rank()) + q) %
                                 static_cast<std::size_t>(comm.size()));
  execute_migration(comm, my_items, my_payloads, doubles_per_item, s.dest,
                    held);
}

/// Scheme 2 (Figure 5): sorted greedy surplus moves. Requires global item
/// metadata on every rank (the allgather is the "number of global
/// communications and a substantial amount of local bookkeeping" the paper
/// criticises), then executes the moves with O(N) transfers.
void balance_sorted_greedy(const comm::Communicator& comm,
                           std::span<const Item> my_items,
                           std::span<const double> my_payloads,
                           int doubles_per_item, BalanceResult& held) {
  Scratch& s = util::rank_local<Scratch>();
  const int p = comm.size();
  const int my_count = static_cast<int>(my_items.size());
  s.counts.resize(static_cast<std::size_t>(p));
  comm.allgatherv_into<int>(std::span<const int>(&my_count, 1), s.ones_of(p),
                            s.counts);
  s.all_items.resize(total(s.counts));
  comm.allgatherv_into<Item>(my_items, s.counts, s.all_items);

  s.lists.resize(static_cast<std::size_t>(p));
  auto next = s.all_items.cbegin();
  for (std::size_t r = 0; r < s.lists.size(); ++r) {
    s.lists[r].assign(next, next + s.counts[r]);
    next += s.counts[r];
  }
  const DestLists dest = plan_sorted_greedy(s.lists);
  // Bookkeeping cost: the whole plan is recomputed on every node.
  comm.charge_flops(30.0 * static_cast<double>(s.all_items.size()));
  execute_migration(comm, my_items, my_payloads, doubles_per_item,
                    dest[static_cast<std::size_t>(comm.rank())], held);
}

/// Scheme 3 (Figure 6): iterative sorted pairwise exchange. Per iteration
/// only the per-rank total loads travel globally; items move between
/// sorted partners.
void balance_pairwise(const comm::Communicator& comm,
                      std::span<const Item> my_items,
                      std::span<const double> my_payloads,
                      int doubles_per_item, PairwiseOptions options,
                      BalanceResult& held) {
  Scratch& s = util::rank_local<Scratch>();
  const int p = comm.size();
  const int me = comm.rank();
  hold_own(me, my_items, my_payloads, doubles_per_item, held);

  for (int iter = 0; iter <= options.max_iterations; ++iter) {
    const std::span<const double> loads =
        gather_loads(comm, held.held_items, s);
    const double imbalance = load_imbalance(loads);
    if (iter == 0) held.imbalance_before = imbalance;
    held.imbalance_after = imbalance;
    if (trace::enabled()) {
      // Per-iteration imbalance: a Chrome-trace counter, gauge, distribution.
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
    held.iterations = iter + 1;
    sorted_pairs(loads, s.order, s.pairs);
    for (const RankPair& pair : s.pairs) {
      if (pair.heavy == me) {
        // The heavier side: pick and ship (possibly nothing).
        pick_pair_share(held.held_items, loads, pair, options.tolerance,
                        s.picks);
        split_held(held, s.picks, doubles_per_item, s);
        if (trace::enabled() && !s.ship.held_items.empty())
          trace::MetricsRegistry::instance().add(
              "lb.items_moved", me,
              static_cast<double>(s.ship.held_items.size()));
        comm.send<Item>(pair.light, kTagItems, s.ship.held_items);
        comm.send<Origin>(pair.light, kTagOrigins, s.ship.held_origins);
        comm.send<double>(pair.light, kTagPayloads, s.ship.held_payloads);
      } else if (pair.light == me) {
        // The lighter side: receive (possibly empty) shipments.
        const auto items = comm.recv_view<Item>(pair.heavy, kTagItems);
        const auto origins = comm.recv_view<Origin>(pair.heavy, kTagOrigins);
        const auto payloads = comm.recv_view<double>(pair.heavy, kTagPayloads);
        append_held(held, items, origins, payloads, doubles_per_item);
      }
    }
  }
}

}  // namespace

void balance(const comm::Communicator& comm, Scheme scheme,
             std::span<const Item> my_items,
             std::span<const double> my_payloads, int doubles_per_item,
             BalanceResult& held, PairwiseOptions options) {
  switch (scheme) {
    case Scheme::kCyclic:
      return balance_cyclic(comm, my_items, my_payloads, doubles_per_item,
                            held);
    case Scheme::kSortedGreedy:
      return balance_sorted_greedy(comm, my_items, my_payloads,
                                   doubles_per_item, held);
    case Scheme::kPairwise:
      return balance_pairwise(comm, my_items, my_payloads, doubles_per_item,
                              options, held);
    case Scheme::kNone:
      break;
  }
  throw ConfigError("lb::balance: scheme 'none' balances nothing");
}

PairwiseResult plan_pairwise(const ItemLists& items,
                             PairwiseOptions options) {
  PairwiseResult result;
  std::vector<BalanceResult> held(items.size());
  for (std::size_t r = 0; r < items.size(); ++r) {
    hold_own(static_cast<int>(r), items[r], {}, 0, held[r]);
    result.dest.emplace_back(items[r].size());
  }
  Scratch s;
  for (int iter = 0;; ++iter) {
    std::vector<double>& loads = result.loads.emplace_back();
    for (const auto& h : held) loads.push_back(held_load(h.held_items));
    if (options.stops(iter, load_imbalance(loads))) break;
    result.iterations = iter + 1;
    sorted_pairs(loads, s.order, s.pairs);
    for (const RankPair& pair : s.pairs) {
      BalanceResult& from = held[static_cast<std::size_t>(pair.heavy)];
      pick_pair_share(from.held_items, loads, pair, options.tolerance,
                      s.picks);
      split_held(from, s.picks, 0, s);
      append_held(held[static_cast<std::size_t>(pair.light)],
                  s.ship.held_items, s.ship.held_origins, {}, 0);
    }
  }
  for (std::size_t r = 0; r < held.size(); ++r)
    for (const Origin& o : held[r].held_origins)
      result.dest[static_cast<std::size_t>(o.rank)]
                 [static_cast<std::size_t>(o.index)] = static_cast<int>(r);
  return result;
}

void execute_migration(const comm::Communicator& comm,
                       std::span<const Item> my_items,
                       std::span<const double> my_payloads,
                       int doubles_per_item, std::span<const int> my_dest,
                       BalanceResult& held) {
  Scratch& s = util::rank_local<Scratch>();
  const int p = comm.size();
  const int me = comm.rank();
  AGCM_ASSERT(my_dest.size() == my_items.size());
  hold_own(me, my_items, my_payloads, doubles_per_item, held);
  held.imbalance_before =
      load_imbalance(gather_loads(comm, held.held_items, s));

  // Ship every item that leaves, grouped by destination; exchange the
  // per-pair counts, then items, origins and payloads behind the kept ones.
  group_by_rank(s, p, my_dest.size(), [&](std::size_t q) {
    AGCM_ASSERT(my_dest[q] >= 0 && my_dest[q] < p);
    return my_dest[q] == me ? -1 : my_dest[q];
  });
  split_held(held, s.group, doubles_per_item, s);
  s.in.resize(s.out.size());
  comm.alltoallv_into<int>(s.out, s.ones_of(p), s.ones, s.in);
  const std::size_t kept = held.held_items.size();
  const auto dpi = static_cast<std::size_t>(doubles_per_item);
  resize_held(held, kept + total(s.in), dpi);
  comm.alltoallv_into<Item>(s.ship.held_items, s.out, s.in,
                            std::span(held.held_items).subspan(kept));
  comm.alltoallv_into<Origin>(s.ship.held_origins, s.out, s.in,
                              std::span(held.held_origins).subspan(kept));
  for (std::vector<int>* counts : {&s.out, &s.in})  // now in doubles
    for (int& c : *counts) c *= doubles_per_item;
  comm.alltoallv_into<double>(s.ship.held_payloads, s.out, s.in,
                              std::span(held.held_payloads).subspan(kept * dpi));

  held.imbalance_after =
      load_imbalance(gather_loads(comm, held.held_items, s));
  held.iterations = 1;
}

void return_to_owners(const comm::Communicator& comm,
                      const BalanceResult& held,
                      std::span<const double> held_results,
                      int doubles_per_result, std::span<double> mine) {
  Scratch& s = util::rank_local<Scratch>();
  const auto dpr = static_cast<std::size_t>(doubles_per_result);
  AGCM_ASSERT(held_results.size() == held.held_items.size() * dpr);

  group_by_rank(s, comm.size(), held.held_origins.size(),
                [&](std::size_t q) { return held.held_origins[q].rank; });
  s.send_indices.resize(s.group.size());
  s.send_data.resize(s.group.size() * dpr);
  for (std::size_t n = 0; n < s.group.size(); ++n) {
    const std::size_t q = s.group[n];
    s.send_indices[n] = held.held_origins[q].index;
    std::copy_n(held_results.data() + q * dpr, dpr,
                s.send_data.data() + n * dpr);
  }

  // Every rank must know how many items come back from each peer: exchange
  // the counts first, then the indices and the data.
  s.in.resize(s.out.size());
  comm.alltoallv_into<int>(s.out, s.ones_of(comm.size()), s.ones, s.in);
  s.recv_indices.resize(total(s.in));
  comm.alltoallv_into<int>(s.send_indices, s.out, s.in, s.recv_indices);
  s.recv_data.resize(s.recv_indices.size() * dpr);
  for (std::vector<int>* counts : {&s.out, &s.in})  // now in doubles
    for (int& c : *counts) c *= doubles_per_result;
  comm.alltoallv_into<double>(s.send_data, s.out, s.in, s.recv_data);

  AGCM_ASSERT(s.recv_indices.size() * dpr == mine.size());
  for (std::size_t n = 0; n < s.recv_indices.size(); ++n) {
    const auto idx = static_cast<std::size_t>(s.recv_indices[n]);
    AGCM_ASSERT((idx + 1) * dpr <= mine.size());
    std::copy_n(s.recv_data.data() + n * dpr, dpr, mine.data() + idx * dpr);
  }
}

}  // namespace agcm::lb
