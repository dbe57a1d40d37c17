#include "loadbalance/planner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace agcm::lb {

namespace {

constexpr int kTagItems = 410;
constexpr int kTagOrigins = 411;
constexpr int kTagPayloads = 412;

/// Greedy heaviest-first pick of held items approximating `target` weight
/// (same policy as the pure planner in schemes.cpp).
std::vector<std::size_t> pick_held(const std::vector<Item>& held,
                                   double target) {
  std::vector<std::size_t> order(held.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return held[a].weight != held[b].weight ? held[a].weight > held[b].weight
                                            : a < b;
  });
  std::vector<std::size_t> picked;
  double shipped = 0.0;
  for (std::size_t q : order) {
    const double w = held[q].weight;
    if (shipped + w <= target) {
      picked.push_back(q);
      shipped += w;
    } else if (shipped + w - target < target - shipped) {
      picked.push_back(q);
      break;
    }
  }
  return picked;
}

}  // namespace

BalanceResult balance_pairwise(const comm::Communicator& comm,
                               std::span<const Item> my_items,
                               std::span<const double> my_payloads,
                               int doubles_per_item,
                               PairwiseOptions options) {
  const int p = comm.size();
  const int me = comm.rank();
  AGCM_ASSERT(my_payloads.size() ==
              my_items.size() * static_cast<std::size_t>(doubles_per_item));

  BalanceResult result;
  result.held_items.assign(my_items.begin(), my_items.end());
  result.held_payloads.assign(my_payloads.begin(), my_payloads.end());
  result.held_origins.resize(my_items.size());
  for (std::size_t q = 0; q < my_items.size(); ++q)
    result.held_origins[q] = {me, static_cast<int>(q)};

  const std::vector<int> ones(static_cast<std::size_t>(p), 1);

  for (int iter = 0; iter <= options.max_iterations; ++iter) {
    // Exchange only the total loads (one double per rank) — the cheap part
    // of Scheme 3.
    double my_load = 0.0;
    for (const Item& item : result.held_items) my_load += item.weight;
    const std::vector<double> loads = comm.allgatherv<double>(
        std::span<const double>(&my_load, 1), ones);

    const double imbalance = load_imbalance(loads);
    result.imbalance_history.push_back(imbalance);
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
    if (iter == options.max_iterations) break;
    if (imbalance <= options.tolerance) break;

    // Sort ranks by load (descending); pair position i with position
    // p-1-i. Deterministic, computed identically everywhere.
    std::vector<int> order(static_cast<std::size_t>(p));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double la = loads[static_cast<std::size_t>(a)];
      const double lb = loads[static_cast<std::size_t>(b)];
      return la != lb ? la > lb : a < b;
    });
    comm.charge_flops(static_cast<double>(p) *
                      std::log2(std::max(2.0, static_cast<double>(p))));

    int my_pos = -1;
    for (int i = 0; i < p; ++i)
      if (order[static_cast<std::size_t>(i)] == me) my_pos = i;
    AGCM_ASSERT(my_pos >= 0);
    const int partner_pos = p - 1 - my_pos;
    if (partner_pos == my_pos) {
      result.iterations = iter + 1;
      continue;  // odd rank count: the median rank sits out
    }
    const int partner = order[static_cast<std::size_t>(partner_pos)];
    const double gap = std::abs(loads[static_cast<std::size_t>(me)] -
                                loads[static_cast<std::size_t>(partner)]);
    const double heavier = std::max(loads[static_cast<std::size_t>(me)],
                                    loads[static_cast<std::size_t>(partner)]);
    const bool exchange_needed =
        gap > options.tolerance * std::max(1.0e-300, heavier);

    if (my_pos < partner_pos) {
      // I am the heavier side: pick and ship.
      std::vector<std::size_t> picked;
      if (exchange_needed)
        picked = pick_held(result.held_items, gap / 2.0);
      std::vector<Item> ship_items;
      std::vector<Origin> ship_origins;
      std::vector<double> ship_payloads;
      std::vector<char> keep(result.held_items.size(), 1);
      for (std::size_t q : picked) {
        keep[q] = 0;
        ship_items.push_back(result.held_items[q]);
        ship_origins.push_back(result.held_origins[q]);
        const auto off = q * static_cast<std::size_t>(doubles_per_item);
        ship_payloads.insert(
            ship_payloads.end(),
            result.held_payloads.begin() + static_cast<std::ptrdiff_t>(off),
            result.held_payloads.begin() +
                static_cast<std::ptrdiff_t>(off + static_cast<std::size_t>(
                                                      doubles_per_item)));
      }
      if (trace::enabled() && !picked.empty()) {
        trace::MetricsRegistry::instance().add(
            "lb.items_moved", me, static_cast<double>(picked.size()));
      }
      comm.send<Item>(partner, kTagItems, ship_items);
      comm.send<Origin>(partner, kTagOrigins, ship_origins);
      comm.send<double>(partner, kTagPayloads, ship_payloads);
      // Compact the kept items.
      std::vector<Item> new_items;
      std::vector<Origin> new_origins;
      std::vector<double> new_payloads;
      for (std::size_t q = 0; q < result.held_items.size(); ++q) {
        if (!keep[q]) continue;
        new_items.push_back(result.held_items[q]);
        new_origins.push_back(result.held_origins[q]);
        const auto off = q * static_cast<std::size_t>(doubles_per_item);
        new_payloads.insert(
            new_payloads.end(),
            result.held_payloads.begin() + static_cast<std::ptrdiff_t>(off),
            result.held_payloads.begin() +
                static_cast<std::ptrdiff_t>(off + static_cast<std::size_t>(
                                                      doubles_per_item)));
      }
      result.held_items = std::move(new_items);
      result.held_origins = std::move(new_origins);
      result.held_payloads = std::move(new_payloads);
    } else {
      // I am the lighter side: receive (possibly empty) shipments.
      const auto items = comm.recv_view<Item>(partner, kTagItems);
      const auto origins = comm.recv_view<Origin>(partner, kTagOrigins);
      const auto payloads = comm.recv_view<double>(partner, kTagPayloads);
      AGCM_ASSERT(items.size() == origins.size());
      AGCM_ASSERT(payloads.size() ==
                  items.size() * static_cast<std::size_t>(doubles_per_item));
      result.held_items.insert(result.held_items.end(), items.data(),
                               items.data() + items.size());
      result.held_origins.insert(result.held_origins.end(), origins.data(),
                                 origins.data() + origins.size());
      result.held_payloads.insert(result.held_payloads.end(), payloads.data(),
                                  payloads.data() + payloads.size());
    }
    result.iterations = iter + 1;
  }
  return result;
}

std::vector<double> return_to_owners(const comm::Communicator& comm,
                                     const BalanceResult& held,
                                     std::span<const double> held_results,
                                     int doubles_per_result,
                                     int my_item_count) {
  const int p = comm.size();
  AGCM_ASSERT(held_results.size() ==
              held.held_items.size() *
                  static_cast<std::size_t>(doubles_per_result));

  // Group held results by origin rank.
  std::vector<std::vector<std::size_t>> by_owner(static_cast<std::size_t>(p));
  for (std::size_t q = 0; q < held.held_origins.size(); ++q)
    by_owner[static_cast<std::size_t>(held.held_origins[q].rank)].push_back(q);

  std::vector<int> send_idx_counts(static_cast<std::size_t>(p), 0);
  std::vector<int> send_data_counts(static_cast<std::size_t>(p), 0);
  std::vector<int> send_indices;
  std::vector<double> send_data;
  for (int r = 0; r < p; ++r) {
    for (std::size_t q : by_owner[static_cast<std::size_t>(r)]) {
      send_indices.push_back(held.held_origins[q].index);
      const auto off = q * static_cast<std::size_t>(doubles_per_result);
      send_data.insert(
          send_data.end(),
          held_results.begin() + static_cast<std::ptrdiff_t>(off),
          held_results.begin() +
              static_cast<std::ptrdiff_t>(off + static_cast<std::size_t>(
                                                    doubles_per_result)));
    }
    send_idx_counts[static_cast<std::size_t>(r)] =
        static_cast<int>(by_owner[static_cast<std::size_t>(r)].size());
    send_data_counts[static_cast<std::size_t>(r)] =
        send_idx_counts[static_cast<std::size_t>(r)] * doubles_per_result;
  }

  // Every rank must know how many items come back from each peer: exchange
  // the counts first (p ints), then the indices and the data.
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);
  std::vector<int> flat_counts;
  for (int r = 0; r < p; ++r)
    flat_counts.push_back(send_idx_counts[static_cast<std::size_t>(r)]);
  // alltoall of one int per pair:
  std::vector<int> one_each(static_cast<std::size_t>(p), 1);
  const std::vector<int> recv_idx_counts =
      comm.alltoallv<int>(flat_counts, one_each, one_each);

  std::vector<int> recv_data_counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    recv_data_counts[static_cast<std::size_t>(r)] =
        recv_idx_counts[static_cast<std::size_t>(r)] * doubles_per_result;

  const std::vector<int> indices =
      comm.alltoallv<int>(send_indices, send_idx_counts, recv_idx_counts);
  const std::vector<double> data =
      comm.alltoallv<double>(send_data, send_data_counts, recv_data_counts);

  AGCM_ASSERT(static_cast<int>(indices.size()) == my_item_count);
  std::vector<double> out(static_cast<std::size_t>(my_item_count) *
                          static_cast<std::size_t>(doubles_per_result));
  for (std::size_t n = 0; n < indices.size(); ++n) {
    const auto idx = static_cast<std::size_t>(indices[n]);
    AGCM_ASSERT(idx < static_cast<std::size_t>(my_item_count));
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(
                                 n * static_cast<std::size_t>(doubles_per_result)),
              data.begin() + static_cast<std::ptrdiff_t>(
                                 (n + 1) * static_cast<std::size_t>(doubles_per_result)),
              out.begin() + static_cast<std::ptrdiff_t>(
                                idx * static_cast<std::size_t>(doubles_per_result)));
  }
  return out;
}

}  // namespace agcm::lb
