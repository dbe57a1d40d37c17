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

Mailbox::Mailbox(int nsources) : first_(static_cast<std::size_t>(nsources)) {
  AGCM_ASSERT(nsources > 0);
}

Mailbox::Channel& Mailbox::channel_locked(int src, std::int64_t tag) {
  AGCM_ASSERT(src >= 0 && static_cast<std::size_t>(src) < first_.size());
  std::unique_ptr<Channel>* link = &first_[static_cast<std::size_t>(src)];
  while (*link != nullptr && (*link)->tag != tag) link = &(*link)->next;
  if (*link == nullptr) {
    *link = std::make_unique<Channel>();
    (*link)->tag = tag;
    ++channels_;
  }
  return **link;
}

void Mailbox::push(Packet packet) {
  Fiber* waiter = nullptr;
  {
    std::lock_guard lock(mutex_);
    Channel& ch = channel_locked(packet.src, packet.tag);
    ch.queue.push(std::move(packet));
    ++delivered_;
    if (&ch != awaited_) return;
    waiter = std::exchange(waiter_, nullptr);
  }
  // Wake the receiver after unlocking: the scheduler takes its own lock and
  // must never nest inside a mailbox's.
#if AGCM_SIMNET_HAS_FIBERS
  if (waiter != nullptr) {
    waiter->unpark();
    return;
  }
#else
  (void)waiter;
#endif
  cv_.notify_one();
}

Packet Mailbox::pop(int src, std::int64_t tag, int timeout_ms) {
  std::unique_lock lock(mutex_);
  Channel& ch = channel_locked(src, tag);
  if (!ch.queue.empty()) return ch.queue.pop();
  // Only the mailbox's own rank receives, so the slot is always free here.
  AGCM_ASSERT(awaited_ == nullptr && waiter_ == nullptr);
  awaited_ = &ch;
#if AGCM_SIMNET_HAS_FIBERS
  if (Fiber* self = current_fiber()) {
    // Park instead of blocking the worker thread. Loop because a wake can
    // also come from the scheduler's deadlock sweep.
    while (ch.queue.empty()) {
      if (self->run_deadlocked()) {
        awaited_ = nullptr;
        waiter_ = nullptr;
        lock.unlock();
        throw CommError(strformat(
            "recv deadlock: every live rank is blocked while waiting for "
            "message src={} tag={} (likely deadlock or tag mismatch); {}",
            src, tag, describe_pending(*this)));
      }
      // Flag the parking state before publishing the waiter, both under
      // the lock, so the sender that claims the waiter is guaranteed a
      // well-formed unpark target.
      self->prepare_park();
      waiter_ = self;
      lock.unlock();
      self->park();
      lock.lock();
    }
    awaited_ = nullptr;
    return ch.queue.pop();
  }
#endif
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const bool ok =
      cv_.wait_until(lock, deadline, [&] { return !ch.queue.empty(); });
  awaited_ = nullptr;
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
  for (const ChannelInfo& info : pending_channels()) n += info.depth;
  return n;
}

std::vector<ChannelInfo> Mailbox::pending_channels() const {
  std::vector<ChannelInfo> out;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t src = 0; src < first_.size(); ++src)
      for (const Channel* ch = first_[src].get(); ch != nullptr;
           ch = ch->next.get())
        if (!ch->queue.empty())
          out.push_back({static_cast<int>(src), ch->tag, ch->queue.size()});
  }
  std::sort(out.begin(), out.end(), [](const ChannelInfo& a,
                                       const ChannelInfo& b) {
    return a.src != b.src ? a.src < b.src : a.tag < b.tag;
  });
  return out;
}

std::size_t Mailbox::live_channels() const {
  std::lock_guard lock(mutex_);
  return channels_;
}

std::uint64_t Mailbox::deliveries() const {
  std::lock_guard lock(mutex_);
  return delivered_;
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
