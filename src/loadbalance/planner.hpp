// Collective load balancing: the executors that move real item payloads
// between ranks for the three schemes of schemes.hpp, and plan_pairwise,
// Scheme 3's executor run as a dry run for all ranks in one process.
//
// `balance` is the one entry point and the only place a scheme picks its
// executor. Every executor works in place on one held set the caller owns
// (BalanceResult's held_* vectors): it gathers the per-rank loads of what
// it holds, picks with pick_heaviest, splits what it ships from what it
// keeps and appends what it receives. Scheme 3 gathers one double per rank
// a round and moves items between sorted partners. Schemes 1 and 2 are one
// personalised all-to-all migration; Scheme 2 first allgathers every item's
// metadata and plans, the bookkeeping the paper criticises. Other scratch is
// rank-local and growth-only. docs/architecture.md lists every message.
#pragma once

#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "loadbalance/schemes.hpp"

namespace agcm::lb {

/// Where a held item originally lived (so results can be returned).
struct Origin {
  int rank = 0;
  int index = 0;  ///< index within the original owner's item list
};

/// Result of a collective balancing operation. The held_* vectors describe
/// the items this rank must now process, in a stable order.
struct BalanceResult {
  std::vector<Item> held_items;
  std::vector<Origin> held_origins;
  std::vector<double> held_payloads;  ///< doubles_per_item per held item
  double imbalance_before = 0.0;      ///< (max-avg)/avg of estimated loads
  double imbalance_after = 0.0;
  int iterations = 0;
};

/// Balances `my_items` (with their estimated weights) collectively with
/// `scheme`, overwriting `held`; `my_payloads` holds doubles_per_item
/// doubles per item and travels with it. `options` applies to Scheme 3
/// only. Scheme kNone throws ConfigError: a caller that does not balance
/// does not call this.
void balance(const comm::Communicator& comm, Scheme scheme,
             std::span<const Item> my_items,
             std::span<const double> my_payloads, int doubles_per_item,
             BalanceResult& held, PairwiseOptions options = {});

/// Scheme 3's dry run: the executor's rounds for all ranks in one process,
/// without payloads or messages. dest[r][q] is the final owner of
/// items[r][q]; loads[i] is every rank's load (summed in held order) after
/// i rounds, so loads.size() == iterations + 1.
struct PairwiseResult {
  DestLists dest;
  int iterations = 0;  ///< rounds performed
  std::vector<std::vector<double>> loads;
};
PairwiseResult plan_pairwise(const ItemLists& items,
                             PairwiseOptions options = {});

/// Moves items to the destinations in `my_dest` (one destination per local
/// item) with a single personalised all-to-all. Collective. The held set
/// is ordered: kept items first (original order), then received items
/// grouped by source rank.
void execute_migration(const comm::Communicator& comm,
                       std::span<const Item> my_items,
                       std::span<const double> my_payloads,
                       int doubles_per_item, std::span<const int> my_dest,
                       BalanceResult& held);

/// Routes per-item results back to the items' original owners. `held` is
/// the set a balancing call filled; `held_results` holds doubles_per_result
/// doubles per held item, ordered like held_items. Writes my original
/// items' results to `mine` in original item order. Collective.
void return_to_owners(const comm::Communicator& comm,
                      const BalanceResult& held,
                      std::span<const double> held_results,
                      int doubles_per_result, std::span<double> mine);

}  // namespace agcm::lb
