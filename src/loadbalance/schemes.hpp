// The three load-balancing schemes of the paper (Section 3.4) as pure
// decisions that every node makes identically from exchanged load
// summaries. Schemes 1 and 2 are planners: every rank's items (id +
// estimated weight) in, each item's destination rank out. Scheme 3 is its
// round (sorted_pairs, pick_pair_share), which the executor (planner.hpp)
// runs per rank and plan_pairwise runs for all ranks as its dry run.
//
//   Scheme 1 (Figure 4)  cyclic shuffle: items scatter round-robin.
//       Balanced when load is spatially uniform; O(N^2) messages.
//   Scheme 2 (Figure 5)  sorted greedy moves: overloaded ranks ship their
//       surplus straight to underloaded ones. O(N) transfers, heavy
//       bookkeeping.
//   Scheme 3 (Figure 6)  iterative sorted pairwise exchange, the adopted
//       scheme: pair rank i with rank N-i+1 by load, move ~half of each
//       pair's difference, repeat until the imbalance is within a
//       tolerance. In Tables 1-3 two rounds take 37-48% to 5-6%.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace agcm::lb {

/// The paper's load-balancing schemes as a first-class configuration axis
/// (the campaign matrix sweeps this; core/config_load parses the names).
enum class Scheme {
  kNone,          ///< no balancing: every rank keeps its own columns
  kCyclic,        ///< Scheme 1: cyclic all-to-all shuffle (Figure 4)
  kSortedGreedy,  ///< Scheme 2: sorted greedy surplus moves (Figure 5)
  kPairwise,      ///< Scheme 3: iterative sorted pairwise exchange (Figure 6)
};

/// Canonical config-file name: "none", "cyclic", "sorted-greedy",
/// "pairwise".
const char* scheme_name(Scheme scheme);

/// One unit of migratable work (e.g. one grid column of Physics).
struct Item {
  std::uint64_t id = 0;   ///< caller-defined identity (stable across moves)
  double weight = 0.0;    ///< estimated cost (seconds or flops)
};

/// Per-rank item lists: items[r] are rank r's local items.
using ItemLists = std::vector<std::vector<Item>>;

/// Destination assignment: dest[r][q] is the new owner of items[r][q].
using DestLists = std::vector<std::vector<int>>;

/// Heaviest-first greedy pick approximating `target` total weight: the
/// positions of `weights` in pick order, ties broken by lower position. An
/// item is taken while the picked total stays at or below `target`, plus one
/// closing item if it lands strictly closer to `target`. The one selection
/// policy of Schemes 2 and 3, in the planners and in the executor.
std::vector<std::size_t> pick_heaviest(std::span<const double> weights,
                                       double target);

/// Per-rank total loads of the original distribution, and implied by an
/// assignment.
std::vector<double> loads_of(const ItemLists& items);
std::vector<double> loads_after(const ItemLists& items, const DestLists& dest);

/// Ranks 0..N-1 heaviest first, ties to the lower rank: the one rank order
/// of Schemes 2 and 3 ("the data load is sorted", Figures 5B and 6).
std::vector<int> ranks_by_load(std::span<const double> loads);

/// Scheme 1: cyclic shuffle. Item q of rank r goes to rank (r + q) mod N.
DestLists plan_cyclic(const ItemLists& items);

/// Scheme 2: sorted greedy surplus moves toward the global average.
DestLists plan_sorted_greedy(const ItemLists& items);

/// Scheme 3 options.
struct PairwiseOptions {
  int max_iterations = 2;  ///< the paper applies the scheme twice
  /// Both the pair skip (a pair whose gap is within tolerance × the heavier
  /// load moves nothing) and the global stop (see stops).
  double tolerance = 0.02;

  /// The one stopping rule: round `iter` (0-based) runs only while iter <
  /// max_iterations and `imbalance`, the (max-avg)/avg of the loads
  /// gathered before it, exceeds tolerance.
  bool stops(int iter, double imbalance) const {
    return iter >= max_iterations || imbalance <= tolerance;
  }
};

/// Scheme 3's pairs (Figure 6): position i of ranks_by_load with position
/// N-1-i; the median of an odd count sits out.
struct RankPair {
  int heavy = 0;
  int light = 0;
};
std::vector<RankPair> sorted_pairs(std::span<const double> loads);

/// Scheme 3's pick on `pair`'s heavier side, which holds `held`:
/// pick_heaviest over the held weights in held order toward half the pair's
/// gap in `loads`; nothing when the gap is within tolerance × its load.
std::vector<std::size_t> pick_pair_share(std::span<const Item> held,
                                         std::span<const double> loads,
                                         RankPair pair, double tolerance);

}  // namespace agcm::lb
