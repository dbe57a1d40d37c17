#include "comm/communicator.hpp"

#include <algorithm>

namespace agcm::comm {

Communicator::Communicator(simnet::RankContext& ctx)
    : ctx_(&ctx), rank_(ctx.rank()), context_id_(0) {
  members_.resize(static_cast<std::size_t>(ctx.nranks()));
  std::iota(members_.begin(), members_.end(), 0);
}

Communicator::Communicator(simnet::RankContext& ctx, std::vector<int> members,
                           int rank, std::int64_t context_id)
    : ctx_(&ctx), members_(std::move(members)), rank_(rank),
      context_id_(context_id) {}

void Communicator::charge_flops(double flops, double cache_efficiency) const {
  ctx_->clock().compute(flops, cache_efficiency);
}

double Communicator::now() const { return ctx_->clock().now(); }

void Communicator::barrier() const {
  AGCM_TRACE_SPAN("comm.barrier", *ctx_);
  const double nothing = 0.0;
  double out = 0.0;
  allreduce<double>(std::span<const double>(&nothing, 1),
                    std::span<double>(&out, 1),
                    [](double a, double b) { return a + b; });
  // After the allreduce every rank has synchronised virtual time with the
  // root's view; additionally align all clocks at the true maximum so a
  // barrier really is a barrier in virtual time.
  const double latest = allreduce_max(ctx_->clock().now());
  ctx_->clock().wait_until(latest);
}

double Communicator::allreduce_sum(double value) const {
  double out = 0.0;
  allreduce<double>(std::span<const double>(&value, 1),
                    std::span<double>(&out, 1),
                    [](double a, double b) { return a + b; });
  return out;
}

double Communicator::allreduce_max(double value) const {
  double out = 0.0;
  allreduce<double>(std::span<const double>(&value, 1),
                    std::span<double>(&out, 1),
                    [](double a, double b) { return std::max(a, b); });
  return out;
}

Communicator Communicator::split(int color, int key) const {
  // Exchange (color, key, old_rank) triples so every rank can compute every
  // group deterministically.
  struct Entry {
    int color;
    int key;
    int old_rank;
  };
  const int p = size();
  const Entry mine{color, key, rank_};
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);
  std::vector<Entry> all(static_cast<std::size_t>(p));
  allgatherv_into<Entry>(std::span<const Entry>(&mine, 1), ones, all);

  std::vector<Entry> group;
  for (const Entry& e : all)
    if (e.color == color) group.push_back(e);
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });

  std::vector<int> members;
  members.reserve(group.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    members.push_back(
        members_[static_cast<std::size_t>(group[i].old_rank)]);
    if (group[i].old_rank == rank_) my_new_rank = static_cast<int>(i);
  }
  AGCM_ASSERT(my_new_rank >= 0);

  // Child context id must be identical on every member of the same group
  // and distinct between groups. Derive it from the parent context, a
  // per-split sequence number (identical on all ranks since split is
  // collective), and the group's color. The encoding supports up to 15
  // split calls per communicator, 255 colors, and nesting depth ~4 before
  // the combined tag leaves the 48-bit budget; that covers the 2-D process
  // mesh (rows + columns) with room to spare.
  const int seq = next_context_++;
  check_config(seq < 16, "too many split() calls on one communicator");
  check_config(color >= 0 && color < 256, "split color out of range [0,256)");
  const std::int64_t child_context =
      context_id_ * 4096 + seq * 256 + (color + 1);
  check_config(child_context < (std::int64_t{1} << 48),
               "communicator nesting too deep for tag encoding");
  return Communicator(*ctx_, std::move(members), my_new_rank, child_context);
}

}  // namespace agcm::comm
