#include "simnet/network.hpp"

#include <algorithm>
#include <chrono>

#include "simnet/fiber.hpp"
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

}  // namespace agcm::simnet
