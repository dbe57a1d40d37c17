#include "loadbalance/schemes.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace agcm::lb {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNone: return "none";
    case Scheme::kCyclic: return "cyclic";
    case Scheme::kSortedGreedy: return "sorted-greedy";
    case Scheme::kPairwise: return "pairwise";
  }
  return "none";
}

std::vector<std::size_t> pick_heaviest(std::span<const double> weights,
                                       double target) {
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] != weights[b] ? weights[a] > weights[b] : a < b;
  });
  std::vector<std::size_t> picked;
  double shipped = 0.0;
  for (std::size_t q : order) {
    if (shipped + weights[q] <= target) {
      picked.push_back(q);
      shipped += weights[q];
    } else if (shipped + weights[q] - target < target - shipped) {
      // Overshooting by less than the remaining gap: take it and stop.
      picked.push_back(q);
      break;
    }
  }
  return picked;
}

std::vector<double> loads_of(const ItemLists& items) {
  std::vector<double> loads(items.size(), 0.0);
  for (std::size_t r = 0; r < items.size(); ++r)
    for (const Item& item : items[r]) loads[r] += item.weight;
  return loads;
}

std::vector<double> loads_after(const ItemLists& items,
                                const DestLists& dest) {
  AGCM_ASSERT(items.size() == dest.size());
  std::vector<double> loads(items.size(), 0.0);
  for (std::size_t r = 0; r < items.size(); ++r) {
    AGCM_ASSERT(items[r].size() == dest[r].size());
    for (std::size_t q = 0; q < items[r].size(); ++q) {
      const int d = dest[r][q];
      AGCM_ASSERT(d >= 0 && d < static_cast<int>(items.size()));
      loads[static_cast<std::size_t>(d)] += items[r][q].weight;
    }
  }
  return loads;
}

std::vector<int> ranks_by_load(std::span<const double> loads) {
  std::vector<int> order(loads.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return loads[a] != loads[b] ? loads[a] > loads[b] : a < b;
  });
  return order;
}

std::vector<RankPair> sorted_pairs(std::span<const double> loads) {
  const std::vector<int> order = ranks_by_load(loads);
  std::vector<RankPair> pairs;
  for (std::size_t i = 0; i < order.size() / 2; ++i)
    pairs.push_back({order[i], order[order.size() - 1 - i]});
  return pairs;
}

std::vector<std::size_t> pick_pair_share(std::span<const Item> held,
                                         std::span<const double> loads,
                                         RankPair pair, double tolerance) {
  const double mine = loads[static_cast<std::size_t>(pair.heavy)];
  const double gap = mine - loads[static_cast<std::size_t>(pair.light)];
  if (gap <= tolerance * std::max(1.0e-300, mine)) return {};
  std::vector<double> weights;
  for (const Item& item : held) weights.push_back(item.weight);
  return pick_heaviest(weights, gap / 2.0);
}

DestLists plan_cyclic(const ItemLists& items) {
  const int p = static_cast<int>(items.size());
  DestLists dest(items.size());
  for (std::size_t r = 0; r < items.size(); ++r) {
    dest[r].resize(items[r].size());
    for (std::size_t q = 0; q < items[r].size(); ++q) {
      // "each processor divides its local data into N pieces, sends N-1
      // pieces to other processors" (Figure 4): round-robin by index.
      dest[r][q] = static_cast<int>((r + q) % static_cast<std::size_t>(p));
    }
  }
  return dest;
}

DestLists plan_sorted_greedy(const ItemLists& items) {
  DestLists dest(items.size());
  for (std::size_t r = 0; r < items.size(); ++r)
    dest[r].assign(items[r].size(), static_cast<int>(r));

  std::vector<double> current = loads_of(items);
  const double avg = mean(current);

  // "All the nodes are then assigned a new node id through a sorting of all
  // local loads" (Figure 5B). Surpluses flow from the most overloaded rank
  // to the most underloaded ones, each transfer sized to fill the
  // receiver's deficit (or exhaust the sender's surplus).
  const std::vector<int> order = ranks_by_load(current);

  int hi = 0;
  int lo = static_cast<int>(items.size()) - 1;
  const double eps = 1.0e-12 * std::max(1.0, avg);
  while (hi < lo) {
    const auto heavy = static_cast<std::size_t>(order[static_cast<std::size_t>(hi)]);
    const auto light = static_cast<std::size_t>(order[static_cast<std::size_t>(lo)]);
    const double surplus = current[heavy] - avg;
    const double deficit = avg - current[light];
    if (surplus <= eps) {
      ++hi;
      continue;
    }
    if (deficit <= eps) {
      --lo;
      continue;
    }
    const double amount = std::min(surplus, deficit);
    // pick_heaviest over what `heavy` now holds, in (src, q) order.
    std::vector<std::pair<std::size_t, std::size_t>> held;
    std::vector<double> weights;
    for (std::size_t r = 0; r < items.size(); ++r)
      for (std::size_t q = 0; q < items[r].size(); ++q)
        if (dest[r][q] == static_cast<int>(heavy)) {
          held.emplace_back(r, q);
          weights.push_back(items[r][q].weight);
        }
    double moved = 0.0;
    for (std::size_t n : pick_heaviest(weights, amount)) {
      const auto [r, q] = held[n];
      dest[r][q] = static_cast<int>(light);
      moved += items[r][q].weight;
    }
    current[heavy] -= moved;
    current[light] += moved;
    if (moved == 0.0) {
      // Item granularity too coarse for the smaller residual: close out the
      // side that is nearer to the average, so the other side can still be
      // matched against a different partner.
      if (deficit <= surplus) --lo;
      else ++hi;
      continue;
    }
    if (current[heavy] <= avg + eps) ++hi;
    if (current[light] >= avg - eps) --lo;
  }
  return dest;
}

}  // namespace agcm::lb
