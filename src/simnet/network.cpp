#include "simnet/network.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

#include "simnet/fiber.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace agcm::simnet {

namespace {

/// Shared tail of the two deadlock paths: describe what *is* queued so a
/// tag or source mismatch is obvious from the error alone.
std::string describe_pending(const Mailbox& mailbox) {
  const auto infos = mailbox.pending_channels();
  if (infos.empty()) return "mailbox empty";
  std::string desc = "pending channels:";
  for (const ChannelInfo& info : infos) {
    desc += strformat(" (src={} tag={} depth={})", info.src, info.tag,
                      info.depth);
  }
  return desc;
}

}  // namespace

Mailbox::Mailbox(int nsources)
    : lanes_(static_cast<std::size_t>(nsources)) {
  AGCM_ASSERT(nsources > 0);
}

Mailbox::~Mailbox() {
  for (std::atomic<Lane*>& lane : lanes_)
    delete lane.load(std::memory_order_relaxed);
}

Mailbox::Channel& Mailbox::channel(int src, std::int64_t tag) {
  AGCM_ASSERT(src >= 0 && static_cast<std::size_t>(src) < lanes_.size());
  std::atomic<Lane*>& head = lanes_[static_cast<std::size_t>(src)];
  Lane* lane = head.load(std::memory_order_acquire);
  if (lane == nullptr) {
    // First touch from this source: publish a fresh lane, or adopt the one
    // the pair's other party published first.
    auto fresh = std::make_unique<Lane>();
    if (head.compare_exchange_strong(lane, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      lane = fresh.release();
    }
  }

  if (Channel* ch = find(*lane, tag)) return *ch;

  // New tag: rescan under the append lock (the pair's other party may have
  // just appended it), then fill the first free slot and publish it.
  std::lock_guard lock(append_mutex_);
  if (Channel* ch = find(*lane, tag)) return *ch;
  Lane* run = lane;
  while (run->size.load(std::memory_order_relaxed) == Lane::kSlots) {
    if (run->next.load(std::memory_order_relaxed) == nullptr)
      run->next.store(new Lane, std::memory_order_release);
    run = run->next.load(std::memory_order_relaxed);
  }
  const std::size_t i = run->size.load(std::memory_order_relaxed);
  run->tags[i] = tag;
  run->channels[i] = std::make_unique<Channel>();
  run->size.store(i + 1, std::memory_order_release);
  return *run->channels[i];
}

Mailbox::Channel* Mailbox::find(const Lane& lane, std::int64_t tag) {
  for (const Lane* run = &lane; run != nullptr;
       run = run->next.load(std::memory_order_acquire)) {
    const std::size_t size = run->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < size; ++i)
      if (run->tags[i] == tag) return run->channels[i].get();
    if (size < Lane::kSlots) break;
  }
  return nullptr;
}

template <typename Visit>
void Mailbox::for_each_channel(Visit&& visit) const {
  for (std::size_t src = 0; src < lanes_.size(); ++src) {
    for (const Lane* run = lanes_[src].load(std::memory_order_acquire);
         run != nullptr;
         run = run->next.load(std::memory_order_acquire)) {
      const std::size_t size = run->size.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < size; ++i)
        visit(static_cast<int>(src), run->tags[i], *run->channels[i]);
    }
  }
}

void Mailbox::push(Packet packet) {
  Channel& ch = channel(packet.src, packet.tag);
  Fiber* waiter = nullptr;
  {
    std::lock_guard lock(ch.mutex);
    ch.queue.push(std::move(packet));
    ++ch.delivered;
#if AGCM_SIMNET_HAS_FIBERS
    // Scheduler-integrated wakeup: claim the parked receiving fiber (if
    // any) while holding the channel lock, unpark it after releasing — the
    // scheduler takes its own lock and must never nest inside a channel's.
    waiter = ch.waiter;
    ch.waiter = nullptr;
#endif
  }
#if AGCM_SIMNET_HAS_FIBERS
  if (waiter != nullptr) {
    waiter->unpark();
    return;
  }
#else
  (void)waiter;
#endif
  // Targeted wakeup for thread-backend receivers: at most one thread ever
  // waits on a (src, tag) channel (the destination rank's receive), so
  // notify_one is exact — no thundering herd across the rank's other
  // outstanding receives.
  ch.cv.notify_one();
}

Packet Mailbox::pop(int src, std::int64_t tag, int timeout_ms) {
  Channel& ch = channel(src, tag);
#if AGCM_SIMNET_HAS_FIBERS
  if (Fiber* self = current_fiber()) {
    // Fiber path: park instead of blocking the worker thread. Loop because
    // a wake can also come from the scheduler's deadlock sweep.
    for (;;) {
      {
        std::unique_lock lock(ch.mutex);
        if (!ch.queue.empty()) return ch.queue.pop();
        if (self->run_deadlocked()) break;
        // Publish ourselves as the channel's waiter *after* flagging the
        // parking state, both under the channel lock, so the sender that
        // sees the waiter is guaranteed a well-formed unpark target.
        self->prepare_park();
        ch.waiter = self;
      }
      self->park();
    }
    throw CommError(strformat(
        "recv deadlock: every live rank is blocked while waiting for "
        "message src={} tag={} (likely deadlock or tag mismatch); {}",
        src, tag, describe_pending(*this)));
  }
#endif
  std::unique_lock lock(ch.mutex);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const bool ok =
      ch.cv.wait_until(lock, deadline, [&] { return !ch.queue.empty(); });
  if (!ok) {
    lock.unlock();
    throw CommError(strformat(
        "recv timeout after {} ms waiting for message src={} tag={} "
        "(likely deadlock or tag mismatch); {}",
        timeout_ms, src, tag, describe_pending(*this)));
  }
  return ch.queue.pop();
}

std::size_t Mailbox::pending() const {
  std::size_t n = 0;
  for_each_channel([&](int, std::int64_t, Channel& ch) {
    std::lock_guard lock(ch.mutex);
    n += ch.queue.size();
  });
  return n;
}

std::vector<ChannelInfo> Mailbox::pending_channels() const {
  std::vector<ChannelInfo> out;
  for_each_channel([&](int src, std::int64_t tag, Channel& ch) {
    std::lock_guard lock(ch.mutex);
    if (!ch.queue.empty()) out.push_back({src, tag, ch.queue.size()});
  });
  std::sort(out.begin(), out.end(), [](const ChannelInfo& a,
                                       const ChannelInfo& b) {
    return a.src != b.src ? a.src < b.src : a.tag < b.tag;
  });
  return out;
}

std::size_t Mailbox::live_lanes() const {
  std::size_t n = 0;
  for (const std::atomic<Lane*>& lane : lanes_)
    n += lane.load(std::memory_order_acquire) != nullptr ? 1 : 0;
  return n;
}

std::size_t Mailbox::live_channels() const {
  std::size_t n = 0;
  for_each_channel([&](int, std::int64_t, Channel&) { ++n; });
  return n;
}

std::uint64_t Mailbox::deliveries() const {
  std::uint64_t n = 0;
  for_each_channel([&](int, std::int64_t, Channel& ch) {
    std::lock_guard lock(ch.mutex);
    n += ch.delivered;
  });
  return n;
}

Rendezvous::Rendezvous(int members)
    : members_(static_cast<std::size_t>(members)),
      sent_{std::vector<std::size_t>(members_.size() * members_.size()),
            std::vector<std::size_t>(members_.size() * members_.size())},
      offset_{std::vector<std::size_t>(members_.size() * members_.size()),
              std::vector<std::size_t>(members_.size() * members_.size())},
      expected_(members_.size() * members_.size()),
      ctx_(members_.size()),
      depart_(members_.size()),
      wake_(members_.size()) {
  AGCM_ASSERT(members > 0);
}

void Rendezvous::stage(int m, std::span<const std::size_t> send_bytes) {
  Member& me = members_[static_cast<std::size_t>(m)];
  const int p = members();
  AGCM_ASSERT(static_cast<int>(send_bytes.size()) == p);
  me.half = me.calls++ & 1;
  std::size_t* sent = &sent_[me.half][at(m, 0)];
  std::size_t* offset = &offset_[me.half][at(m, 0)];
  // Every block starts allocator-aligned, so readers may view it in place.
  // The self block never leaves the rank, so it takes no room here.
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  std::size_t total = 0;
  for (int peer = 0; peer < p; ++peer) {
    const std::size_t bytes =
        peer == m ? 0 : send_bytes[static_cast<std::size_t>(peer)];
    offset[peer] = total;
    sent[peer] = bytes;
    total += (bytes + kAlign - 1) & ~(kAlign - 1);
  }
  if (me.area[me.half].size() < total) me.area[me.half].resize(total);
}

std::span<std::byte> Rendezvous::outgoing(int m, int peer) {
  Member& me = members_[static_cast<std::size_t>(m)];
  return std::span<std::byte>(me.area[me.half])
      .subspan(offset_[me.half][at(m, peer)], sent_[me.half][at(m, peer)]);
}

std::span<const std::byte> Rendezvous::incoming(int m, int src) const {
  const std::size_t half = members_[static_cast<std::size_t>(m)].half;
  return std::span<const std::byte>(
             members_[static_cast<std::size_t>(src)].area[half])
      .subspan(offset_[half][at(src, m)], sent_[half][at(src, m)]);
}

void Rendezvous::exchange(RankContext& ctx, int m,
                          std::span<const std::size_t> recv_bytes,
                          int timeout_ms) {
  Member& me = members_[static_cast<std::size_t>(m)];
  AGCM_ASSERT(static_cast<int>(recv_bytes.size()) == members());
  std::copy(recv_bytes.begin(), recv_bytes.end(),
            expected_.begin() + static_cast<std::ptrdiff_t>(at(m, 0)));
  std::unique_lock lock(mutex_);
  ctx_[static_cast<std::size_t>(m)] = &ctx;
  const std::uint64_t call = completed_;

  if (++arrived_ < members()) {
    // Wait for the last arrival's replay, parking like a blocked recv.
#if AGCM_SIMNET_HAS_FIBERS
    if (Fiber* self = current_fiber()) {
      while (completed_ == call) {
        if (self->run_deadlocked()) {
          me.waiter = nullptr;
          --arrived_;
          throw CommError(strformat(
              "alltoallv deadlock: every live rank is blocked while {} of "
              "{} members wait in the rendezvous (a member never arrived)",
              arrived_ + 1, members()));
        }
        self->prepare_park();
        me.waiter = self;
        lock.unlock();
        self->park();
        lock.lock();
      }
      if (!failure_.empty()) throw CommError(failure_);
      return;
    }
#endif
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    if (!cv_.wait_until(lock, deadline, [&] { return completed_ != call; })) {
      --arrived_;
      throw CommError(strformat(
          "alltoallv timeout after {} ms: {} of {} members arrived at the "
          "rendezvous (likely deadlock: a member never arrived)",
          timeout_ms, arrived_ + 1, members()));
    }
    if (!failure_.empty()) throw CommError(failure_);
    return;
  }

  arrived_ = 0;
  replay();
  ++completed_;
  const std::string failure = failure_;
  std::size_t nwake = 0;
  for (Member& other : members_)
    if (other.waiter != nullptr)
      wake_[nwake++] = std::exchange(other.waiter, nullptr);
  lock.unlock();
  // Wake outside the slot lock: the scheduler takes its own lock and must
  // never nest inside this one. The next replay cannot touch wake_ before
  // this member arrives again.
#if AGCM_SIMNET_HAS_FIBERS
  for (std::size_t i = 0; i < nwake; ++i) wake_[i]->unpark();
#endif
  cv_.notify_all();
  if (!failure.empty()) throw CommError(failure);
}

std::uint64_t Rendezvous::blocks() {
  std::lock_guard lock(mutex_);
  return blocks_;
}

void Rendezvous::replay() {
  const int p = members();
  const std::size_t half = members_.front().half;
  const std::vector<std::size_t>& sent = sent_[half];
  failure_.clear();
  // Every sent block needs a receiver expecting exactly its size, and every
  // expected block a sender: check all pairs before charging anything.
  for (int d = 0; d < p; ++d) {
    for (int r = 0; r < p; ++r) {
      if (r != d && sent[at(r, d)] != expected_[at(d, r)]) {
        failure_ = strformat(
            "alltoallv: member {} sends {} bytes to member {}, which "
            "expects {} bytes from it",
            r, sent[at(r, d)], d, expected_[at(d, r)]);
        return;
      }
    }
  }
  // The pairwise schedule's charges, in its order: in round s each rank
  // sends to r+s and then receives from r-s. A rank's round-s send depends
  // only on its state after round s-1, so charging every round-s send
  // before any round-s receive gives each clock the same operations, in
  // the same order, as the message-based exchange.
  for (int s = 1; s < p; ++s) {
    for (int r = 0; r < p; ++r) {
      const int dst = r + s < p ? r + s : r + s - p;
      if (const std::size_t bytes = sent[at(r, dst)]) {
        depart_[static_cast<std::size_t>(r)] =
            ctx_[static_cast<std::size_t>(r)]->charge_send(bytes);
        ++blocks_;
      }
    }
    for (int r = 0; r < p; ++r) {
      const int src = r - s >= 0 ? r - s : r - s + p;
      if (const std::size_t bytes = sent[at(src, r)])
        ctx_[static_cast<std::size_t>(r)]->charge_recv(
            depart_[static_cast<std::size_t>(src)], bytes);
    }
  }
}

Network::Network(int nranks) : nranks_(nranks) {
  AGCM_ASSERT(nranks > 0);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>(nranks));
}

Mailbox& Network::mailbox(int rank) {
  AGCM_ASSERT(rank >= 0 && rank < nranks_);
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

std::size_t Network::live_channels() const {
  std::size_t n = 0;
  for (const auto& mailbox : mailboxes_) n += mailbox->live_channels();
  return n;
}

std::uint64_t Network::mailbox_deliveries() const {
  std::uint64_t n = 0;
  for (const auto& mailbox : mailboxes_) n += mailbox->deliveries();
  return n;
}

std::uint64_t Network::rendezvous_blocks() {
  std::lock_guard lock(rendezvous_mutex_);
  std::uint64_t n = 0;
  for (const auto& [context, slot] : rendezvous_) n += slot->blocks();
  return n;
}

Rendezvous& Network::rendezvous(std::int64_t context, int members) {
  std::lock_guard lock(rendezvous_mutex_);
  std::unique_ptr<Rendezvous>& slot = rendezvous_[context];
  if (!slot) slot = std::make_unique<Rendezvous>(members);
  if (slot->members() != members)
    throw CommError(strformat(
        "communicator context {} has {} members here but {} elsewhere",
        context, members, slot->members()));
  return *slot;
}

}  // namespace agcm::simnet
