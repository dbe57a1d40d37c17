// In-memory message transport between virtual nodes.
//
// Every (src, dst, tag) channel preserves FIFO order, matching MPI point-to-
// point semantics. Payloads are pooled byte buffers (see buffer_pool.hpp)
// that move — never copy — from the sender's pack loop to the receiver's
// unpack loop. The typed layer lives in comm/communicator.hpp. Each packet
// carries the sender's virtual departure time so the receiver can compute
// its virtual arrival.
//
// A mailbox is one lock over all of its channels. Channels are indexed
// densely by source, since a flat gather still reaches its root from every
// other rank; a source's few tags chain off its first channel. A channel is
// created on first touch and lives as long as the mailbox.
//
// Only the mailbox's own rank receives from it, so at most one receive
// waits at a time and the mailbox has a single waiter slot: the channel the
// receive waits on and, under the fiber backend, the parked Fiber*. A push
// onto that channel unparks the fiber (a user-space context switch) or,
// under the thread backend, signals the mailbox's condition variable. A
// push onto any other channel wakes nobody.
//
// All-to-alls bypass the mailbox: each communicator's Rendezvous slot
// charges their messages' virtual cost without sending them (below).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "simnet/buffer_pool.hpp"

namespace agcm::simnet {

class Fiber;

/// One in-flight message.
struct Packet {
  Buffer payload;
  double depart_time = 0.0;  ///< sender's virtual clock when injected
  int src = -1;
  std::int64_t tag = 0;  ///< wide: encodes (communicator context, user tag)
};

/// Queue depth of one (src, tag) channel — deadlock diagnostics.
struct ChannelInfo {
  int src = -1;
  std::int64_t tag = 0;
  std::size_t depth = 0;
};

/// Growth-only FIFO ring of packets. Unlike std::deque (whose forward-
/// walking cursors allocate and free a block node every handful of
/// operations even at constant depth), a ring at steady depth never touches
/// the heap — a requirement of the allocation-free transport contract
/// (tests/test_comm_alloc.cpp). Capacity is a power of two and only grows.
class PacketRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(Packet&& packet) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(packet);
    ++count_;
  }

  Packet pop() {
    Packet packet = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return packet;
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<Packet> next(cap);
    for (std::size_t q = 0; q < count_; ++q)
      next[q] = std::move(slots_[(head_ + q) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<Packet> slots_;  ///< power-of-two capacity
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Per-destination mailbox; thread-safe, one lock and one waiter slot.
class Mailbox {
 public:
  /// A mailbox that receives from sources 0 .. nsources-1.
  explicit Mailbox(int nsources);
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void push(Packet packet);

  /// Blocks until a packet from (src, tag) is available; FIFO per channel.
  /// Only the mailbox's own rank may call it. Throws CommError on deadlock,
  /// with a message listing every channel that has queued packets so a tag
  /// mismatch or ordering deadlock is visible at a glance. On a fiber the
  /// call parks the calling fiber and deadlock is detected by scheduler
  /// quiescence (immediately); on a plain thread it waits on the mailbox's
  /// condition variable and deadlock is a `timeout_ms` real-time timeout.
  Packet pop(int src, std::int64_t tag, int timeout_ms);

  /// Number of queued packets across all channels (diagnostics).
  std::size_t pending() const;

  /// Per-channel queue depths for every non-empty channel, sorted by
  /// (src, tag) — the payload of the enriched timeout diagnostics.
  std::vector<ChannelInfo> pending_channels() const;

  /// Channels created so far.
  std::size_t live_channels() const;
  /// Packets pushed into this mailbox since construction.
  std::uint64_t deliveries() const;

 private:
  /// One (src, tag) FIFO.
  struct Channel {
    std::int64_t tag = 0;
    PacketRing queue;
    std::unique_ptr<Channel> next;  ///< the same source's next tag
  };

  /// Pre: mutex_ held. Finds or creates the channel for (src, tag).
  Channel& channel_locked(int src, std::int64_t tag);

  mutable std::mutex mutex_;  ///< guards everything below
  std::vector<std::unique_ptr<Channel>> first_;  ///< one chain per source
  std::size_t channels_ = 0;
  std::uint64_t delivered_ = 0;
  // The waiter slot: the channel the blocked receive waits on, and its
  // parked fiber (fiber backend) or the condition variable it waits on
  // (thread backend).
  Channel* awaited_ = nullptr;
  Fiber* waiter_ = nullptr;
  std::condition_variable cv_;
};

class RankContext;

/// The rendezvous slot behind one communicator's all-to-alls. An
/// all-to-all's virtual cost needs no messages: a receive's charge is pure
/// LogP, apply_arrival(depart + transfer_time(bytes)), so every charge is
/// a fixed function of the members' entry clocks and block sizes. Each
/// member stages its outgoing blocks here and arrives once; the last to
/// arrive replays the pairwise schedule's charges for everyone, and each
/// member then reads its incoming blocks straight out of the senders'
/// staging areas.
///
/// One call on member m: stage(m, send) lays out m's blocks; the caller
/// fills outgoing(m, peer); exchange(...) arrives, parks, and returns once
/// the replay is done (or throws the replay's CommError, on every member);
/// then incoming(m, src) holds src's block for m until m's next stage().
///
/// Staging areas, block offsets and block sizes are double-buffered by the
/// parity of the call: a member rewrites its parity-g half only when it
/// stages call g+2, which it cannot reach before every member has arrived
/// at g+1 — and a member arrives at g+1 only after it has finished reading
/// call g. Each member writes only its own staging area and its own rows of
/// the slot's matrices; the replay reads them, and charges every member's
/// RankContext, while all members are parked.
class Rendezvous {
 public:
  explicit Rendezvous(int members);
  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  int members() const { return static_cast<int>(members_.size()); }

  /// Starts member `m`'s next call: lays out one block of send_bytes[peer]
  /// bytes per other peer in its staging half (growth-only storage). The
  /// self block is the caller's business and gets no room.
  void stage(int m, std::span<const std::size_t> send_bytes);

  /// Member `m`'s staged block for `peer` != m, to be packed before
  /// exchange().
  std::span<std::byte> outgoing(int m, int peer);

  /// Arrives with `ctx` (member `m`'s rank) and waits until every member
  /// has arrived; the last to arrive replays the charges of the P-1-round
  /// pairwise exchange (round s: rank r sends to r+s, receives from r-s;
  /// empty blocks are no message) onto every member's clock and traffic
  /// ledger. Throws CommError on every member if some pair's sent and
  /// expected sizes differ, and on a waiter when the run deadlocks (fibers)
  /// or after `timeout_ms` real milliseconds (threads).
  void exchange(RankContext& ctx, int m,
                std::span<const std::size_t> recv_bytes, int timeout_ms);

  /// The block `src` sent to member `m` in m's last exchange().
  std::span<const std::byte> incoming(int m, int src) const;

  /// Blocks charged as messages by every replay so far (host diagnostics).
  std::uint64_t blocks();

 private:
  struct alignas(64) Member {
    Fiber* waiter = nullptr;         ///< parked fiber; guarded by mutex_
    std::uint64_t calls = 0;         ///< stage() calls so far
    std::size_t half = 0;            ///< parity of the current call
    std::vector<std::byte> area[2];  ///< staged blocks, back to back
  };

  /// Pre: mutex_ held, every member arrived. Charges the whole schedule,
  /// or sets failure_ and charges nothing.
  void replay();

  std::size_t at(int row, int col) const {
    return static_cast<std::size_t>(row) * members_.size() +
           static_cast<std::size_t>(col);
  }

  std::vector<Member> members_;
  // P x P matrices, row m written by member m: the bytes it sends each peer
  // and where they sit in its staging area (double-buffered), and the bytes
  // it expects from each peer (read by the replay only).
  std::vector<std::size_t> sent_[2];
  std::vector<std::size_t> offset_[2];
  std::vector<std::size_t> expected_;
  std::vector<RankContext*> ctx_;  ///< each member's rank, set on arrival
  std::vector<double> depart_;     ///< replay scratch: a round's departures
  std::vector<Fiber*> wake_;       ///< the replaying member's unpark list

  std::mutex mutex_;
  std::condition_variable cv_;  ///< thread-backend waiters
  int arrived_ = 0;
  std::uint64_t completed_ = 0;  ///< exchanges finished
  std::uint64_t blocks_ = 0;     ///< blocks charged as messages, ever
  std::string failure_;          ///< the last replay's error, if any
};

/// The whole interconnect: one mailbox per rank, one all-to-all rendezvous
/// slot per communicator, and the shared payload buffer pool. It holds no
/// traffic state: each rank counts its own messages
/// (RankContext::traffic()).
class Network {
 public:
  explicit Network(int nranks);

  int nranks() const { return nranks_; }
  Mailbox& mailbox(int rank);

  /// The recycling payload pool shared by every rank of this network.
  BufferPool& pool() { return pool_; }

  /// Deadlock-detection timeout for blocking receives (real milliseconds).
  void set_recv_timeout_ms(int ms) { timeout_ms_ = ms; }
  int recv_timeout_ms() const { return timeout_ms_; }

  /// Channels created so far, summed over every mailbox (host diagnostics).
  std::size_t live_channels() const;
  /// Packets delivered through the mailboxes, summed over every mailbox.
  std::uint64_t mailbox_deliveries() const;
  /// Blocks the all-to-all rendezvous slots charged as messages.
  std::uint64_t rendezvous_blocks();

  /// The all-to-all slot of communicator context `context` with `members`
  /// ranks, created on first use. The reference stays valid for the
  /// network's lifetime; a communicator looks it up once and caches it.
  Rendezvous& rendezvous(std::int64_t context, int members);

 private:
  int nranks_;
  BufferPool pool_;  ///< declared before mailboxes_: queued packets release
                     ///< their buffers into the pool during destruction
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::mutex rendezvous_mutex_;
  std::unordered_map<std::int64_t, std::unique_ptr<Rendezvous>> rendezvous_;
  int timeout_ms_ = 60'000;
};

}  // namespace agcm::simnet
