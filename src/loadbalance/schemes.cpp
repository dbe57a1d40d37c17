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

namespace {

/// Reference to one item inside an ItemLists structure.
struct ItemRef {
  std::size_t src;  ///< original owner rank
  std::size_t q;    ///< index within that rank's list
};

/// pick_heaviest over the items *currently assigned to* `holder` (wherever
/// they originally lived), taken in (src, q) order.
std::vector<ItemRef> pick_items(const ItemLists& items, const DestLists& dest,
                                int holder, double target) {
  std::vector<ItemRef> candidates;
  std::vector<double> weights;
  for (std::size_t r = 0; r < items.size(); ++r)
    for (std::size_t q = 0; q < items[r].size(); ++q)
      if (dest[r][q] == holder) {
        candidates.push_back({r, q});
        weights.push_back(items[r][q].weight);
      }
  std::vector<ItemRef> picked;
  for (std::size_t n : pick_heaviest(weights, target))
    picked.push_back(candidates[n]);
  return picked;
}

}  // namespace

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
  const int p = static_cast<int>(items.size());
  DestLists dest(items.size());
  for (std::size_t r = 0; r < items.size(); ++r)
    dest[r].assign(items[r].size(), static_cast<int>(r));

  std::vector<double> loads = loads_of(items);
  const double avg = mean(loads);

  // "All the nodes are then assigned a new node id through a sorting of all
  // local loads" (Figure 5B). Surpluses flow from the most overloaded rank
  // to the most underloaded ones, each transfer sized to fill the
  // receiver's deficit (or exhaust the sender's surplus).
  std::vector<int> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return loads[static_cast<std::size_t>(a)] != loads[static_cast<std::size_t>(b)]
               ? loads[static_cast<std::size_t>(a)] > loads[static_cast<std::size_t>(b)]
               : a < b;
  });

  int hi = 0;
  int lo = p - 1;
  std::vector<double> current = loads;
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
    const auto picked =
        pick_items(items, dest, static_cast<int>(heavy), amount);
    double moved = 0.0;
    for (const auto& ref : picked) {
      dest[ref.src][ref.q] = static_cast<int>(light);
      moved += items[ref.src][ref.q].weight;
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

PairwiseResult plan_pairwise(const ItemLists& items,
                             PairwiseOptions options) {
  const int p = static_cast<int>(items.size());
  PairwiseResult result;
  result.dest.resize(items.size());
  for (std::size_t r = 0; r < items.size(); ++r)
    result.dest[r].assign(items[r].size(), static_cast<int>(r));

  std::vector<double> current = loads_of(items);
  result.imbalance_history.push_back(load_imbalance(current));

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // "The data load is sorted and a rank is assigned to each processor...
    // a pairwise data exchange between processors with rank i and rank
    // N - i + 1 is initiated" (Figure 6).
    std::vector<int> order(items.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return current[static_cast<std::size_t>(a)] != current[static_cast<std::size_t>(b)]
                 ? current[static_cast<std::size_t>(a)] > current[static_cast<std::size_t>(b)]
                 : a < b;
    });

    bool any_move = false;
    for (int i = 0; i < p / 2; ++i) {
      const auto heavy = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      const auto light =
          static_cast<std::size_t>(order[static_cast<std::size_t>(p - 1 - i)]);
      const double gap = current[heavy] - current[light];
      // "A pairwise data exchange is only needed when the load difference
      // in the pair of nodes exceeds some tolerance."
      if (gap <= options.tolerance * std::max(1.0e-300, current[heavy]))
        continue;
      const auto picked =
          pick_items(items, result.dest, static_cast<int>(heavy), gap / 2.0);
      double moved = 0.0;
      for (const auto& ref : picked) {
        result.dest[ref.src][ref.q] = static_cast<int>(light);
        moved += items[ref.src][ref.q].weight;
      }
      current[heavy] -= moved;
      current[light] += moved;
      if (moved > 0.0) any_move = true;
    }
    result.iterations = iter + 1;
    result.imbalance_history.push_back(load_imbalance(current));
    if (!any_move) break;
  }
  return result;
}

}  // namespace agcm::lb
