// The three load-balancing schemes analysed in the paper (Section 3.4).
//
// All three are expressed here as *pure planners*: given every rank's work
// items (id + estimated weight), produce each item's destination rank. The
// planners are deterministic and run identically on every node from
// allgathered weights (planner.hpp holds the collective executors that move
// real payloads), which mirrors how the original schemes made global
// decisions from exchanged load summaries.
//
//   Scheme 1 (Figure 4)  cyclic data shuffling: every processor splits its
//       local items into N pieces and scatters them round-robin. Guarantees
//       balance when local load is spatially uniform; costs O(N^2)
//       messages.
//   Scheme 2 (Figure 5)  sorted greedy moves: ranks are sorted by load,
//       overloaded ranks ship their surplus directly to underloaded ones.
//       O(N) transfers but heavy bookkeeping per application.
//   Scheme 3 (Figure 6)  iterative sorted pairwise exchange — the adopted
//       scheme: sort ranks by load, pair rank i with rank N-i+1, move
//       ~half the difference within each pair; repeat until the imbalance
//       falls below a tolerance. Cheap (pairwise messages only) and
//       convergent; Tables 1-3 show two iterations reduce the measured
//       physics imbalance from 37-48% to 5-6%.
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

/// Per-rank total loads implied by an assignment.
std::vector<double> loads_after(const ItemLists& items, const DestLists& dest);

/// Per-rank total loads of the original distribution.
std::vector<double> loads_of(const ItemLists& items);

/// Scheme 1: cyclic shuffle. Item q of rank r goes to rank (r + q) mod N.
DestLists plan_cyclic(const ItemLists& items);

/// Scheme 2: sorted greedy surplus moves toward the global average.
DestLists plan_sorted_greedy(const ItemLists& items);

/// Scheme 3 options and result.
struct PairwiseOptions {
  int max_iterations = 2;    ///< the paper applies the scheme twice
  double tolerance = 0.02;   ///< skip a pair whose relative gap is below this
};

struct PairwiseResult {
  DestLists dest;
  int iterations = 0;                      ///< iterations actually performed
  std::vector<double> imbalance_history;   ///< [0]=before, [i]=after iter i
};

/// Scheme 3: iterative sorted pairwise exchange.
PairwiseResult plan_pairwise(const ItemLists& items, PairwiseOptions options = {});

}  // namespace agcm::lb
