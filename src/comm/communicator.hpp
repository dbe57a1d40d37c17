// Typed message-passing layer over the simnet byte transport.
//
// The interface mirrors the MPI subset the original parallel AGCM used
// (point-to-point, broadcast/reduce trees, gather/scatter, alltoallv) so the
// algorithms in filter/ and loadbalance/ read like their MPI originals.
// Collectives cost the classic algorithms' genuine messages (binomial
// trees, pairwise exchange), not a magic constant. Barrier, reductions,
// broadcast and gathers are implemented on top of point-to-point; alltoallv
// is a rendezvous (simnet::Rendezvous) that charges every rank exactly what
// the pairwise exchange's P-1 rounds of messages would, with one host
// synchronisation instead of the messages.
//
// Each collective has one implementation, which writes into storage the
// caller owns (the `_into` forms), so a caller that keeps its buffers
// reaches a steady state with no heap traffic (docs/transport.md).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/packed.hpp"
#include "simnet/machine.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"

namespace agcm::comm {

namespace detail {
/// The parent of relative rank `rel` in a binomial tree rooted at 0: `rel`
/// with its lowest set bit cleared.
inline int tree_parent(int rel) { return rel & (rel - 1); }

/// Elements in a gather of per-rank `counts`.
inline std::size_t total_count(std::span<const int> counts) {
  std::size_t total = 0;
  for (int c : counts) total += static_cast<std::size_t>(c);
  return total;
}
}  // namespace detail

/// A communicator: a group of ranks able to exchange typed messages.
/// The world communicator covers every rank of the machine; `split` creates
/// row/column sub-communicators with translated ranks and isolated tags.
class Communicator {
 public:
  /// World communicator over all ranks of the running SPMD program.
  explicit Communicator(simnet::RankContext& ctx);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  simnet::RankContext& context() const { return *ctx_; }

  /// Virtual clock shortcuts (all library code charges compute through the
  /// communicator so callers don't need to thread the clock around).
  void charge_flops(double flops, double cache_efficiency = 1.0) const;
  double now() const;

  /// Splits into disjoint sub-communicators: ranks with equal `color` end up
  /// in the same group, ordered by `key` (ties broken by old rank).
  /// Collective over this communicator.
  Communicator split(int color, int key) const;

  // --- point-to-point -----------------------------------------------------

  template <typename T>
  void send(int dst, int tag, std::span<const T> data) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check_tag(tag);
    ctx_->send_bytes(global(dst), combine_tag(tag),
                     std::as_bytes(data));
  }

  template <typename T>
  void send_value(int dst, int tag, const T& value) const {
    send<T>(dst, tag, std::span<const T>(&value, 1));
  }

  /// Receives exactly data.size() elements; throws CommError on mismatch.
  template <typename T>
  void recv(int src, int tag, std::span<T> data) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check_tag(tag);
    const auto bytes = ctx_->recv_bytes(global(src), combine_tag(tag));
    if (bytes.size() != data.size_bytes()) {
      throw CommError("recv size mismatch: expected " +
                      std::to_string(data.size_bytes()) + " bytes, got " +
                      std::to_string(bytes.size()));
    }
    // Guard: an empty payload's data() may be null, and memcpy's pointer
    // arguments must be non-null even for size 0 (UBSan enforces this).
    if (!bytes.empty()) std::memcpy(data.data(), bytes.data(), bytes.size());
  }

  template <typename T>
  T recv_value(int src, int tag) const {
    T value{};
    recv<T>(src, tag, std::span<T>(&value, 1));
    return value;
  }

  // --- zero-copy pooled transport ------------------------------------------
  //
  // The pooled path packs a message *once*, directly into the wire buffer:
  // acquire (or packer) hands out recycled storage, the caller fills it, and
  // send_buffer moves it into the network with no further copies. On the
  // receive side, recv_buffer / recv_view hand the pooled payload back to the
  // caller, who reads it in place; the storage recycles when the handle dies.

  /// Borrows a `bytes`-sized wire buffer from the machine's recycling pool.
  Buffer acquire(std::size_t bytes) const {
    return ctx_->acquire_buffer(bytes);
  }

  /// Convenience: a cursor-checked writer over a freshly acquired buffer.
  PackedWriter packer(std::size_t bytes) const {
    return PackedWriter(acquire(bytes));
  }

  /// Moves a fully packed buffer into the network — the zero-copy send.
  void send_buffer(int dst, int tag, Buffer&& payload) const {
    check_tag(tag);
    ctx_->send_bytes(global(dst), combine_tag(tag), std::move(payload));
  }

  /// Sends the remaining contents of a writer (must be exactly full).
  void send_packed(int dst, int tag, PackedWriter&& writer) const {
    send_buffer(dst, tag, writer.take());
  }

  /// Receives a message as the pooled payload itself — read it in place.
  Buffer recv_buffer(int src, int tag) const {
    check_tag(tag);
    return ctx_->recv_bytes(global(src), combine_tag(tag));
  }

  /// Receives a message of unknown length as a typed in-place view; the view
  /// owns the pooled storage.
  template <typename T>
  TypedView<T> recv_view(int src, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return TypedView<T>(recv_buffer(src, tag));
  }

  /// Receives a message of known length as a cursor-checked reader.
  PackedReader recv_packed(int src, int tag) const {
    return PackedReader(recv_buffer(src, tag));
  }

  // --- collectives (all collective over this communicator) ----------------

  /// Barrier: two binomial-tree allreduces of one double (a sum, then the
  /// max of the clocks, which every rank then waits for). Costs 4(P-1)
  /// messages of 8 bytes.
  void barrier() const;

  /// Binomial-tree broadcast of `data` from `root` to everyone.
  template <typename T>
  void broadcast(int root, std::span<T> data) const;

  /// Binomial-tree reduction with an element-wise associative `op`; result
  /// valid on `root` only. in/out may alias.
  template <typename T>
  void reduce(int root, std::span<const T> in, std::span<T> out,
              const std::function<T(T, T)>& op) const;

  /// reduce + broadcast (the era-typical implementation).
  template <typename T>
  void allreduce(std::span<const T> in, std::span<T> out,
                 const std::function<T(T, T)>& op) const;

  double allreduce_sum(double value) const;
  double allreduce_max(double value) const;

  /// Root gathers `counts[r]` elements from each rank r (counts known on all
  /// ranks) into `all`, the sum of `counts` elements, concatenated in rank
  /// order. `all` is not touched on other ranks.
  template <typename T>
  void gatherv_into(int root, std::span<const T> mine,
                    std::span<const int> counts, std::span<T> all) const;

  /// Inverse of gatherv_into: root holds the concatenation in `all`, and
  /// each rank receives its `counts[rank()]` elements into `mine`.
  template <typename T>
  void scatterv_into(int root, std::span<const T> all,
                     std::span<const int> counts, std::span<T> mine) const;

  /// Every rank receives the rank-order concatenation of all blocks into
  /// `all`, the sum of `counts` elements (gatherv_into, then broadcast).
  template <typename T>
  void allgatherv_into(std::span<const T> mine, std::span<const int> counts,
                       std::span<T> all) const;

  /// Personalised all-to-all with per-pair counts. `send_counts[r]` elements
  /// go to rank r (taken from `send_data` in rank order); `recv_data`, the
  /// sum of `recv_counts` elements, receives the concatenation of blocks
  /// from ranks 0..P-1. A typed adapter over `alltoallv_packed`: the same
  /// schedule, each block copied into and out of its staged bytes. Its
  /// offsets and byte sizes live in this communicator's growth-only scratch.
  template <typename T>
  void alltoallv_into(std::span<const T> send_data,
                      std::span<const int> send_counts,
                      std::span<const int> recv_counts,
                      std::span<T> recv_data) const;

  /// Vector-returning forms of the two collectives above, for callers
  /// outside src/ (perfbench's probes); a CI lint keeps src/ on `_into`.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::span<const int> counts) const {
    std::vector<T> all(detail::total_count(counts));
    allgatherv_into<T>(mine, counts, all);
    return all;
  }
  template <typename T>
  std::vector<T> alltoallv(std::span<const T> send_data,
                           std::span<const int> send_counts,
                           std::span<const int> recv_counts) const {
    std::vector<T> recv_data(detail::total_count(recv_counts));
    alltoallv_into<T>(send_data, send_counts, recv_counts, recv_data);
    return recv_data;
  }

  /// Zero-copy personalised all-to-all, priced as the self block without a
  /// message plus P-1 rounds of pairwise exchange: in round s this rank
  /// sends to rank+s and receives from rank-s, and blocks of zero bytes are
  /// no message at all (this matters: the load-balanced filter sends
  /// nothing between most pairs). Every rank's clock, breakdown and traffic
  /// ledger come out exactly as if those messages had been sent.
  ///
  /// The exchange itself is one rendezvous (simnet::Rendezvous). This rank
  /// packs and unpacks its self block, then `pack(dst, writer)` fills each
  /// outgoing block in place in its staging area, in round order; it
  /// arrives and parks once, the last rank to arrive replays the schedule's
  /// charges for everyone, and `unpack(src, reader)` then reads each
  /// incoming block in round order, in place, out of the sender's staging
  /// area. Staging areas are double-buffered by the parity of the call, so
  /// a fast rank's next call never overwrites blocks a slow rank is still
  /// reading. Contract: `pack` and `unpack` must not touch the virtual
  /// clock, and `unpack` must not write what `pack` reads. `send_bytes[r]`
  /// must equal rank r's `recv_bytes[rank()]` for every pair; a mismatch
  /// throws CommError on every rank.
  template <typename PackFn, typename UnpackFn>
  void alltoallv_packed(std::span<const std::size_t> send_bytes,
                        std::span<const std::size_t> recv_bytes,
                        PackFn&& pack, UnpackFn&& unpack) const;

 private:
  Communicator(simnet::RankContext& ctx, std::vector<int> members, int rank,
               std::int64_t context_id);

  int global(int local_rank) const {
    if (local_rank < 0 || local_rank >= size()) {
      throw CommError("rank " + std::to_string(local_rank) +
                      " out of range for communicator of size " +
                      std::to_string(size()));
    }
    return members_[static_cast<std::size_t>(local_rank)];
  }

  static void check_tag(int tag) {
    if (tag < 0 || tag >= kMaxUserTag) {
      throw CommError("tag " + std::to_string(tag) + " out of range");
    }
  }

  std::int64_t combine_tag(int tag) const {
    return static_cast<std::int64_t>(context_id_) * kMaxUserTag + tag;
  }

  /// This communicator's all-to-all slot, looked up once.
  simnet::Rendezvous& rendezvous() const {
    if (rendezvous_ == nullptr)
      rendezvous_ = &ctx_->network().rendezvous(context_id_, size());
    return *rendezvous_;
  }

  static constexpr int kMaxUserTag = 1 << 12;

  simnet::RankContext* ctx_;
  std::vector<int> members_;  ///< local rank -> machine rank
  int rank_;                  ///< my local rank
  std::int64_t context_id_;   ///< isolates traffic between communicators
  mutable int next_context_ = 1;  ///< allocator for child context ids
  mutable simnet::Rendezvous* rendezvous_ = nullptr;
  /// alltoallv_into's block offsets and byte sizes (growth-only).
  mutable util::GrowBuffer<std::size_t> alltoallv_scratch_;
};

// --- template implementations ----------------------------------------------

template <typename T>
void Communicator::broadcast(int root, std::span<T> data) const {
  static_assert(std::is_trivially_copyable_v<T>);
  AGCM_TRACE_SPAN("comm.broadcast", *ctx_);
  const int p = size();
  if (p == 1) return;
  const int rel = (rank_ - root + p) % p;
  constexpr int kTag = kMaxUserTag - 1;
  if (rel != 0) {
    const int parent_rel = detail::tree_parent(rel);
    recv<T>((parent_rel + root) % p, kTag, data);
  }
  // Forward to children: rel + 2^k for every 2^k > lowest set bit of rel
  // (for rel==0: all powers of two below p).
  for (int bit = 1; bit < p; bit <<= 1) {
    if (rel != 0 && (rel & bit)) break;  // bits below my lowest set bit done
    const int child_rel = rel | bit;
    if (child_rel != rel && child_rel < p) {
      send<T>((child_rel + root) % p, kTag,
              std::span<const T>(data.data(), data.size()));
    }
  }
}

template <typename T>
void Communicator::reduce(int root, std::span<const T> in, std::span<T> out,
                          const std::function<T(T, T)>& op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  AGCM_TRACE_SPAN("comm.reduce", *ctx_);
  AGCM_ASSERT(in.size() == out.size());
  const int p = size();
  constexpr int kTag = kMaxUserTag - 2;
  const int rel = (rank_ - root + p) % p;
  // Small payloads — the scalar allreduces and barriers every model step
  // issues — accumulate in stack buffers so the collective is heap-free in
  // steady state (tests/test_kernel_alloc.cpp); larger payloads fall back
  // to heap scratch. The arithmetic and its order are unchanged.
  constexpr std::size_t kInline = 8;
  T acc_inline[kInline];
  T inc_inline[kInline];
  std::vector<T> acc_heap, inc_heap;
  std::span<T> acc, incoming;
  if (in.size() <= kInline) {
    std::copy(in.begin(), in.end(), acc_inline);
    acc = std::span<T>(acc_inline, in.size());
    incoming = std::span<T>(inc_inline, in.size());
  } else {
    acc_heap.assign(in.begin(), in.end());
    inc_heap.resize(in.size());
    acc = acc_heap;
    incoming = inc_heap;
  }
  // Children send up the binomial tree, leaves first.
  for (int bit = 1; bit < p; bit <<= 1) {
    if (rel & bit) {
      // I have a parent at (rel without this bit); send and stop.
      const int parent_rel = rel ^ bit;
      send<T>((parent_rel + root) % p, kTag,
              std::span<const T>(acc.data(), acc.size()));
      break;
    }
    const int child_rel = rel | bit;
    if (child_rel < p) {
      recv<T>((child_rel + root) % p, kTag,
              std::span<T>(incoming.data(), incoming.size()));
      // Reduction order fixed by tree structure => deterministic.
      const double flops = static_cast<double>(in.size());
      charge_flops(flops);
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = op(acc[i], incoming[i]);
    }
  }
  if (rel == 0) std::copy(acc.begin(), acc.end(), out.begin());
}

template <typename T>
void Communicator::allreduce(std::span<const T> in, std::span<T> out,
                             const std::function<T(T, T)>& op) const {
  AGCM_TRACE_SPAN("comm.allreduce", *ctx_);
  reduce<T>(0, in, out, op);
  broadcast<T>(0, out);
}

template <typename T>
void Communicator::gatherv_into(int root, std::span<const T> mine,
                                std::span<const int> counts,
                                std::span<T> all) const {
  static_assert(std::is_trivially_copyable_v<T>);
  AGCM_TRACE_SPAN("comm.gatherv", *ctx_);
  const int p = size();
  AGCM_ASSERT(static_cast<int>(counts.size()) == p);
  AGCM_ASSERT(static_cast<int>(mine.size()) ==
              counts[static_cast<std::size_t>(rank_)]);
  constexpr int kTag = kMaxUserTag - 3;
  // Flat, like the era's MPI_Gatherv: every rank sends straight to root.
  if (rank_ == root) {
    AGCM_ASSERT(all.size() == detail::total_count(counts));
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r) {
      const auto n = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      if (r == rank_) {
        std::copy(mine.begin(), mine.end(), all.begin() + static_cast<std::ptrdiff_t>(offset));
      } else if (n > 0) {
        recv<T>(r, kTag, std::span<T>(all.data() + offset, n));
      }
      offset += n;
    }
  } else if (!mine.empty()) {
    send<T>(root, kTag, mine);
  }
}

template <typename T>
void Communicator::scatterv_into(int root, std::span<const T> all,
                                 std::span<const int> counts,
                                 std::span<T> mine) const {
  static_assert(std::is_trivially_copyable_v<T>);
  AGCM_TRACE_SPAN("comm.scatterv", *ctx_);
  const int p = size();
  AGCM_ASSERT(static_cast<int>(counts.size()) == p);
  AGCM_ASSERT(static_cast<int>(mine.size()) ==
              counts[static_cast<std::size_t>(rank_)]);
  constexpr int kTag = kMaxUserTag - 4;
  if (rank_ == root) {
    AGCM_ASSERT(all.size() == detail::total_count(counts));
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r) {
      const auto n = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      if (r == rank_) {
        std::copy_n(all.begin() + static_cast<std::ptrdiff_t>(offset), n,
                    mine.begin());
      } else if (n > 0) {
        send<T>(r, kTag, all.subspan(offset, n));
      }
      offset += n;
    }
  } else if (!mine.empty()) {
    recv<T>(root, kTag, mine);
  }
}

template <typename T>
void Communicator::allgatherv_into(std::span<const T> mine,
                                   std::span<const int> counts,
                                   std::span<T> all) const {
  AGCM_TRACE_SPAN("comm.allgatherv", *ctx_);
  AGCM_ASSERT(all.size() == detail::total_count(counts));
  gatherv_into<T>(0, mine, counts, all);
  broadcast<T>(0, all);
}

template <typename T>
void Communicator::alltoallv_into(std::span<const T> send_data,
                                  std::span<const int> send_counts,
                                  std::span<const int> recv_counts,
                                  std::span<T> recv_data) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto p = static_cast<std::size_t>(size());
  AGCM_ASSERT(send_counts.size() == p);
  AGCM_ASSERT(recv_counts.size() == p);
  // Element offsets of each rank's block, and its size in wire bytes.
  const std::span<std::size_t> scratch = alltoallv_scratch_.take(4 * p + 2);
  const auto send_offsets = scratch.first(p + 1);
  const auto recv_offsets = scratch.subspan(p + 1, p + 1);
  const auto send_bytes = scratch.subspan(2 * p + 2, p);
  const auto recv_bytes = scratch.subspan(3 * p + 2, p);
  send_offsets[0] = recv_offsets[0] = 0;
  for (std::size_t r = 0; r < p; ++r) {
    send_offsets[r + 1] = send_offsets[r] + static_cast<std::size_t>(send_counts[r]);
    recv_offsets[r + 1] = recv_offsets[r] + static_cast<std::size_t>(recv_counts[r]);
    send_bytes[r] = static_cast<std::size_t>(send_counts[r]) * sizeof(T);
    recv_bytes[r] = static_cast<std::size_t>(recv_counts[r]) * sizeof(T);
  }
  AGCM_ASSERT(send_offsets[p] == send_data.size());
  AGCM_ASSERT(recv_offsets[p] == recv_data.size());
  alltoallv_packed(
      send_bytes, recv_bytes,
      [&](int dst, PackedWriter& writer) {
        const auto d = static_cast<std::size_t>(dst);
        writer.write<T>(
            send_data.subspan(send_offsets[d], send_bytes[d] / sizeof(T)));
      },
      [&](int src, PackedReader& reader) {
        const auto s = static_cast<std::size_t>(src);
        reader.read<T>(
            recv_data.subspan(recv_offsets[s], recv_bytes[s] / sizeof(T)));
      });
}

template <typename PackFn, typename UnpackFn>
void Communicator::alltoallv_packed(std::span<const std::size_t> send_bytes,
                                    std::span<const std::size_t> recv_bytes,
                                    PackFn&& pack, UnpackFn&& unpack) const {
  AGCM_TRACE_SPAN("comm.alltoallv", *ctx_);
  const int p = size();
  AGCM_ASSERT(static_cast<int>(send_bytes.size()) == p);
  AGCM_ASSERT(static_cast<int>(recv_bytes.size()) == p);
  simnet::Rendezvous& slot = rendezvous();
  slot.stage(rank_, send_bytes);

  // Self block: pooled buffer handed from pack to unpack, no message and no
  // virtual-clock activity.
  {
    const auto ur = static_cast<std::size_t>(rank_);
    AGCM_ASSERT(send_bytes[ur] == recv_bytes[ur]);
    if (send_bytes[ur] > 0) {
      PackedWriter writer(acquire(send_bytes[ur]));
      pack(rank_, writer);
      PackedReader reader(writer.take());
      unpack(rank_, reader);
    }
  }
  // Round s sends to (rank+s) and receives from (rank-s): pack in that
  // order, meet every rank once, then unpack in that order.
  for (int s = 1; s < p; ++s) {
    const int dst = (rank_ + s) % p;
    if (send_bytes[static_cast<std::size_t>(dst)] > 0) {
      PackedWriter writer(slot.outgoing(rank_, dst));
      pack(dst, writer);
      writer.finish();
    }
  }
  slot.exchange(*ctx_, rank_, recv_bytes, ctx_->network().recv_timeout_ms());
  for (int s = 1; s < p; ++s) {
    const int src = (rank_ - s + p) % p;
    if (recv_bytes[static_cast<std::size_t>(src)] > 0) {
      PackedReader reader(slot.incoming(rank_, src));
      unpack(src, reader);
    }
  }
}

}  // namespace agcm::comm
