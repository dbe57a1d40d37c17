// Tests for the virtual multicomputer: clock arithmetic, transport
// semantics, determinism, failure injection, and the fiber scheduler's
// park/unpark machinery under heavy oversubscription.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>

#include "comm/communicator.hpp"
#include "simnet/fiber.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"

namespace agcm::simnet {
namespace {

std::span<const std::byte> as_bytes(const std::vector<double>& v) {
  return std::as_bytes(std::span<const double>(v));
}

/// Builds a one-byte test packet (mailbox tests have no Network/pool, so the
/// payload is a self-owning unpooled Buffer).
Packet make_packet(std::byte value, int src, std::int64_t tag) {
  Packet packet;
  packet.payload = Buffer::unpooled(std::vector<std::byte>{value});
  packet.depart_time = 0.0;
  packet.src = src;
  packet.tag = tag;
  return packet;
}

TEST(MachineProfile, ComputeTimeScalesWithRateAndEfficiency) {
  MachineProfile p = MachineProfile::ideal();  // 1 flop/s
  EXPECT_DOUBLE_EQ(p.compute_time(10.0), 10.0);
  EXPECT_DOUBLE_EQ(p.compute_time(10.0, 0.5), 20.0);
}

TEST(MachineProfile, EfficiencyIsClamped) {
  MachineProfile p = MachineProfile::ideal();
  EXPECT_DOUBLE_EQ(p.compute_time(1.0, 5.0), 1.0);      // clamped to 1
  EXPECT_DOUBLE_EQ(p.compute_time(1.0, 0.0), 1000.0);   // clamped to 1e-3
}

TEST(MachineProfile, TransferTime) {
  MachineProfile p;
  p.msg_latency_sec = 1.0e-3;
  p.link_bytes_per_sec = 1.0e6;
  EXPECT_DOUBLE_EQ(p.transfer_time(1.0e6), 1.0e-3 + 1.0);
}

TEST(MachineProfile, T3dFasterThanParagon) {
  const auto paragon = MachineProfile::intel_paragon();
  const auto t3d = MachineProfile::cray_t3d();
  EXPECT_GT(t3d.flops_per_sec, paragon.flops_per_sec);
  EXPECT_LT(t3d.msg_latency_sec, paragon.msg_latency_sec);
}

TEST(MachineProfile, LoopEfficiencyModel) {
  MachineProfile p;
  p.loop_startup_elems = 8.0;
  EXPECT_DOUBLE_EQ(p.loop_efficiency(8.0), 0.5);
  EXPECT_NEAR(p.loop_efficiency(144.0), 144.0 / 152.0, 1e-12);
  // Monotone increasing toward 1.
  EXPECT_LT(p.loop_efficiency(4.0), p.loop_efficiency(16.0));
  EXPECT_LT(p.loop_efficiency(16.0), 1.0);
  // No startup cost => always 1.
  p.loop_startup_elems = 0.0;
  EXPECT_DOUBLE_EQ(p.loop_efficiency(3.0), 1.0);
}

TEST(MachineProfile, ShortLoopsHurtParagonMoreThanT3d) {
  const auto paragon = MachineProfile::intel_paragon();
  const auto t3d = MachineProfile::cray_t3d();
  EXPECT_LT(paragon.loop_efficiency(5.0), t3d.loop_efficiency(5.0));
}

TEST(VirtualClock, ComputeAdvancesAndAccumulates) {
  const MachineProfile p = MachineProfile::ideal();
  VirtualClock clock(p);
  clock.compute(5.0);
  clock.compute(2.0);
  EXPECT_DOUBLE_EQ(clock.now(), 7.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().compute, 7.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().wait, 0.0);
}

TEST(VirtualClock, ArrivalInFutureRecordsWait) {
  const MachineProfile p = MachineProfile::ideal();
  VirtualClock clock(p);
  clock.compute(1.0);
  clock.apply_arrival(4.0);
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);  // zero recv overhead on ideal
  EXPECT_DOUBLE_EQ(clock.breakdown().wait, 3.0);
}

TEST(VirtualClock, ArrivalInPastIsFree) {
  const MachineProfile p = MachineProfile::ideal();
  VirtualClock clock(p);
  clock.compute(10.0);
  clock.apply_arrival(4.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().wait, 0.0);
}

TEST(VirtualClock, WaitUntil) {
  VirtualClock clock(MachineProfile::ideal());
  clock.wait_until(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
  clock.wait_until(1.0);  // no-op
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(Mailbox, FifoPerChannel) {
  Mailbox box(/*nsources=*/8);
  box.push(make_packet(std::byte{1}, /*src=*/0, /*tag=*/7));
  box.push(make_packet(std::byte{2}, 0, 7));
  EXPECT_EQ(box.pop(0, 7, 1000).payload[0], std::byte{1});
  EXPECT_EQ(box.pop(0, 7, 1000).payload[0], std::byte{2});
}

TEST(Mailbox, FifoSurvivesInterleavedChannels) {
  // Sharded channels must stay FIFO per (src, tag) even when pushes to other
  // channels interleave arbitrarily.
  Mailbox box(/*nsources=*/8);
  for (int i = 0; i < 16; ++i) {
    box.push(make_packet(std::byte(i), 0, 7));
    box.push(make_packet(std::byte(100 + i), 3, 7));
    box.push(make_packet(std::byte(200 + i), 0, 9));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(box.pop(0, 7, 1000).payload[0], std::byte(i));
    EXPECT_EQ(box.pop(3, 7, 1000).payload[0], std::byte(100 + i));
    EXPECT_EQ(box.pop(0, 9, 1000).payload[0], std::byte(200 + i));
  }
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, ChannelsAreIndependent) {
  Mailbox box(/*nsources=*/8);
  box.push(make_packet(std::byte{9}, 1, 5));
  box.push(make_packet(std::byte{8}, 2, 5));
  EXPECT_EQ(box.pop(2, 5, 1000).payload[0], std::byte{8});
  EXPECT_EQ(box.pop(1, 5, 1000).payload[0], std::byte{9});
}

TEST(Mailbox, TimeoutThrowsCommError) {
  Mailbox box(/*nsources=*/8);
  EXPECT_THROW(box.pop(0, 0, 50), CommError);
}

TEST(Mailbox, TimeoutErrorListsPendingChannels) {
  // The deadlock diagnostic names what *is* queued, so a tag or source
  // mismatch is visible from the error message alone.
  Mailbox box(/*nsources=*/8);
  box.push(make_packet(std::byte{1}, 2, 11));
  box.push(make_packet(std::byte{2}, 2, 11));
  box.push(make_packet(std::byte{3}, 4, 3));
  try {
    box.pop(0, 7, 50);
    FAIL() << "pop should have timed out";
  } catch (const CommError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("src=0 tag=7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending channels:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(src=2 tag=11 depth=2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(src=4 tag=3 depth=1)"), std::string::npos) << msg;
  }
}

TEST(Mailbox, TimeoutErrorOnEmptyMailbox) {
  Mailbox box(/*nsources=*/8);
  try {
    box.pop(1, 2, 50);
    FAIL() << "pop should have timed out";
  } catch (const CommError& e) {
    EXPECT_NE(std::string(e.what()).find("mailbox empty"), std::string::npos);
  }
}

TEST(Mailbox, PendingChannelsSortedAndCounted) {
  Mailbox box(/*nsources=*/8);
  box.push(make_packet(std::byte{0}, 3, 1));
  box.push(make_packet(std::byte{0}, 1, 9));
  box.push(make_packet(std::byte{0}, 1, 2));
  box.push(make_packet(std::byte{0}, 1, 2));
  const auto infos = box.pending_channels();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].src, 1);
  EXPECT_EQ(infos[0].tag, 2);
  EXPECT_EQ(infos[0].depth, 2u);
  EXPECT_EQ(infos[1].src, 1);
  EXPECT_EQ(infos[1].tag, 9);
  EXPECT_EQ(infos[2].src, 3);
  EXPECT_EQ(infos[2].tag, 1);
  EXPECT_EQ(box.pending(), 4u);
}

TEST(Mailbox, ManySourcesAndTagsKeepPerChannelFifo) {
  // 64 sources x 11 tags: every source chains 11 channels, and pushes to
  // all 704 channels interleave. Each channel still drains in its own push
  // order, whatever order the channels are drained in.
  constexpr int kSources = 64;
  constexpr int kTags = 11;
  constexpr int kDepth = 3;
  Mailbox box(kSources);
  const auto value = [](int src, int tag, int seq) {
    return std::byte((src * 31 + tag * 7 + seq) & 0xff);
  };
  for (int seq = 0; seq < kDepth; ++seq)
    for (int tag = 0; tag < kTags; ++tag)
      for (int src = 0; src < kSources; ++src)
        box.push(make_packet(value(src, tag, seq), src, 1000 + tag));
  EXPECT_EQ(box.live_channels(), static_cast<std::size_t>(kSources * kTags));
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kSources * kTags * kDepth));
  for (int src = kSources - 1; src >= 0; --src)
    for (int tag = kTags - 1; tag >= 0; --tag)
      for (int seq = 0; seq < kDepth; ++seq)
        EXPECT_EQ(box.pop(src, 1000 + tag, 1000).payload[0],
                  value(src, tag, seq));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, PendingChannelsSortedAcrossSourcesAndTags) {
  // Channels come from several sources, and one source's chain holds nine
  // tags created in descending order: the report is still sorted by
  // (src, tag) and skips drained channels.
  Mailbox box(8);
  for (std::int64_t tag = 9; tag >= 1; --tag)
    box.push(make_packet(std::byte{0}, 6, tag));
  box.push(make_packet(std::byte{0}, 0, 5));
  box.push(make_packet(std::byte{0}, 7, -3));
  box.push(make_packet(std::byte{0}, 2, 4));
  box.push(make_packet(std::byte{0}, 2, 4));
  (void)box.pop(6, 4, 1000);  // drained channels are not reported
  const auto infos = box.pending_channels();
  ASSERT_EQ(infos.size(), 11u);
  for (std::size_t i = 1; i < infos.size(); ++i) {
    const bool ordered = infos[i - 1].src != infos[i].src
                             ? infos[i - 1].src < infos[i].src
                             : infos[i - 1].tag < infos[i].tag;
    EXPECT_TRUE(ordered) << "entry " << i;
  }
  EXPECT_EQ(infos.front().src, 0);
  EXPECT_EQ(infos[1].src, 2);
  EXPECT_EQ(infos[1].depth, 2u);
  EXPECT_EQ(infos[2].src, 6);
  EXPECT_EQ(infos[2].tag, 1);
  EXPECT_EQ(infos.back().src, 7);
  EXPECT_EQ(infos.back().tag, -3);
  EXPECT_EQ(box.live_channels(), 12u);
  EXPECT_EQ(box.pending(), 12u);
}

TEST(Mailbox, BlockedPopWakesOnlyOnItsChannel) {
  // A plain-thread pop blocked on (2, 7) completes on the push to that
  // channel. Pushes to other tags and sources of the same mailbox, made
  // while it waits, stay pending in FIFO order. A timed-out pop before it
  // must leave the waiter slot free.
  Mailbox box(4);
  EXPECT_THROW(box.pop(0, 0, 20), CommError);
  std::atomic<bool> done{false};
  std::byte got{};
  std::thread receiver([&] {
    got = box.pop(2, 7, 10'000).payload[0];
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.push(make_packet(std::byte{1}, 2, 8));
  box.push(make_packet(std::byte{2}, 1, 7));
  box.push(make_packet(std::byte{3}, 2, 9));
  box.push(make_packet(std::byte{4}, 2, 8));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  EXPECT_EQ(box.pending(), 4u);
  const auto pushed = std::chrono::steady_clock::now();
  box.push(make_packet(std::byte{5}, 2, 7));
  receiver.join();
  // The push itself wakes the receive; a lost wakeup would end only at the
  // pop's 10 s deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - pushed, std::chrono::seconds(5));
  EXPECT_EQ(got, std::byte{5});
  const auto infos = box.pending_channels();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].src, 1);
  EXPECT_EQ(infos[1].tag, 8);
  EXPECT_EQ(infos[1].depth, 2u);
  EXPECT_EQ(infos[2].tag, 9);
  EXPECT_EQ(box.pop(2, 8, 1000).payload[0], std::byte{1});
  EXPECT_EQ(box.pop(2, 8, 1000).payload[0], std::byte{4});
  EXPECT_EQ(box.pop(1, 7, 1000).payload[0], std::byte{2});
  EXPECT_EQ(box.pop(2, 9, 1000).payload[0], std::byte{3});
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.deliveries(), 5u);
}

TEST(Network, ChannelsAreCreatedOnlyWhenTouched) {
  // At P=1024 a mailbox holds one channel pointer per source; no channel
  // exists until a message is sent on that (src, tag).
  Network network(1024);
  EXPECT_EQ(network.live_channels(), 0u);

  network.mailbox(7).push(make_packet(std::byte{1}, 1000, 3));
  network.mailbox(7).push(make_packet(std::byte{2}, 1000, 4));
  network.mailbox(1023).push(make_packet(std::byte{3}, 0, 3));
  EXPECT_EQ(network.mailbox(7).live_channels(), 2u);
  EXPECT_EQ(network.mailbox(1023).live_channels(), 1u);
  EXPECT_EQ(network.mailbox(0).live_channels(), 0u);
  EXPECT_EQ(network.live_channels(), 3u);
  EXPECT_EQ(network.mailbox(7).pop(1000, 4, 1000).payload[0], std::byte{2});
}

TEST(BufferPool, RecyclesStorageWithCapacityIntact) {
  BufferPool pool;
  const std::byte* first_data = nullptr;
  {
    Buffer b = pool.acquire(256);
    EXPECT_EQ(b.size(), 256u);
    first_data = b.data();
    EXPECT_EQ(pool.outstanding(), 1u);
  }  // released back to the pool here
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_count(), 1u);
  Buffer again = pool.acquire(128);  // smaller: must reuse, not allocate
  EXPECT_EQ(again.size(), 128u);
  EXPECT_GE(again.capacity(), 256u);  // growth-only capacity
  EXPECT_EQ(again.data(), first_data);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  BufferPool pool;
  Buffer a = pool.acquire(8);
  Buffer b = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(pool.outstanding(), 1u);
  a = std::move(b);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(BufferPool, UnpooledBufferOwnsItsStorage) {
  Buffer b = Buffer::unpooled({std::byte{42}, std::byte{43}});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], std::byte{43});
}

TEST(BufferPool, SizeClassBins) {
  // Storage of capacity c is filed in bin floor_log2(c)+1; a request of n
  // bytes starts at bin ceil_log2(n)+1, the first whose storage all fits.
  EXPECT_EQ(BufferPool::capacity_bin(0), 0u);
  EXPECT_EQ(BufferPool::capacity_bin(1), 1u);
  EXPECT_EQ(BufferPool::capacity_bin(1023), 10u);
  EXPECT_EQ(BufferPool::capacity_bin(1024), 11u);
  EXPECT_EQ(BufferPool::capacity_bin(1025), 11u);
  EXPECT_EQ(BufferPool::request_bin(0), 0u);
  EXPECT_EQ(BufferPool::request_bin(1), 1u);
  EXPECT_EQ(BufferPool::request_bin(2), 2u);
  EXPECT_EQ(BufferPool::request_bin(1024), 11u);
  EXPECT_EQ(BufferPool::request_bin(1025), 12u);
  for (std::size_t n = 1; n < 5000; ++n) {
    // Storage filed in the request's bin always covers the request.
    EXPECT_GE(std::size_t{1} << (BufferPool::request_bin(n) - 1), n);
  }
}

TEST(BufferPool, ZeroByteRequests) {
  BufferPool pool;
  {
    Buffer empty = pool.acquire(0);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(pool.misses(), 1u);
  }
  EXPECT_EQ(pool.free_count(), 1u);
  Buffer big = pool.acquire(100);  // grows the empty storage
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(big.capacity(), 128u);
  const std::byte* big_data = big.data();
  big = Buffer();
  Buffer again = pool.acquire(0);  // any storage serves a zero-byte request
  EXPECT_EQ(again.size(), 0u);
  EXPECT_EQ(again.data(), big_data);
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, ExactPowerOfTwoAndOneMore) {
  BufferPool pool;
  {
    Buffer exact = pool.acquire(256);
    EXPECT_EQ(exact.capacity(), 256u);  // already a class size
    Buffer above = pool.acquire(257);
    EXPECT_EQ(above.capacity(), 512u);  // rounded up to the next class
  }
  // The 256-byte storage serves 256 exactly; 257 must take the 512 one.
  Buffer a = pool.acquire(257);
  EXPECT_EQ(a.capacity(), 512u);
  Buffer b = pool.acquire(256);
  EXPECT_EQ(b.capacity(), 256u);
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BufferPool, RequestTakesSmallestFittingClass) {
  BufferPool pool;
  const std::byte* small_data = nullptr;
  const std::byte* large_data = nullptr;
  {
    Buffer small = pool.acquire(64);
    Buffer large = pool.acquire(4096);
    small_data = small.data();
    large_data = large.data();
  }
  Buffer first = pool.acquire(3000);  // only the 4096 one fits
  EXPECT_EQ(first.data(), large_data);
  Buffer second = pool.acquire(10);   // the 64 one: nothing smaller is free
  EXPECT_EQ(second.data(), small_data);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(BufferPool, SmallerRequestReusesLargerBuffer) {
  BufferPool pool;
  const std::byte* data = nullptr;
  {
    Buffer b = pool.acquire(1 << 16);
    data = b.data();
  }
  Buffer small = pool.acquire(3);
  EXPECT_EQ(small.data(), data);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_EQ(small.capacity(), std::size_t{1} << 16);
}

TEST(BufferPool, GrowsTheLargestSmallerStorage) {
  BufferPool pool;
  const std::byte* smallest = nullptr;
  {
    Buffer a = pool.acquire(16);
    Buffer b = pool.acquire(200);
    Buffer c = pool.acquire(100);
    smallest = a.data();
  }
  // Nothing covers 1000 bytes: the 256-byte storage (the largest free one)
  // grows to the full 1024-byte class; the others stay in their bins.
  Buffer grown = pool.acquire(1000);
  EXPECT_EQ(grown.capacity(), 1024u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.free_count(), 2u);
  Buffer mid = pool.acquire(100);
  EXPECT_EQ(mid.capacity(), 128u);
  Buffer low = pool.acquire(1);
  EXPECT_EQ(low.data(), smallest);
  EXPECT_EQ(pool.misses(), 3u);
}

TEST(BufferPool, PrewarmedStorageLandsInItsClass) {
  BufferPool pool;
  pool.prewarm(2, 1000);  // rounded up to the 1024-byte class
  EXPECT_EQ(pool.free_count(), 2u);
  Buffer a = pool.acquire(1024);
  Buffer b = pool.acquire(513);
  EXPECT_EQ(a.capacity(), 1024u);
  EXPECT_EQ(b.capacity(), 1024u);
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.misses(), 0u);
  Buffer c = pool.acquire(1);  // freelist empty now
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.outstanding(), 3u);
}

TEST(Machine, RunsAllRanks) {
  Machine machine(MachineProfile::ideal());
  std::vector<int> hits(8, 0);
  machine.run(8, [&](RankContext& ctx) { hits[static_cast<std::size_t>(ctx.rank())] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Machine, PingPongTransfersDataAndTime) {
  MachineProfile p = MachineProfile::ideal();
  p.msg_latency_sec = 2.0;
  Machine machine(p);
  const auto result = machine.run(2, [&](RankContext& ctx) {
    std::vector<double> payload{1.5, 2.5};
    if (ctx.rank() == 0) {
      ctx.clock().compute(5.0);  // rank 0 is busy before sending
      ctx.send_bytes(1, 3, as_bytes(payload));
    } else {
      const auto bytes = ctx.recv_bytes(0, 3);
      ASSERT_EQ(bytes.size(), 2 * sizeof(double));
      double values[2];
      std::memcpy(values, bytes.data(), sizeof(values));
      EXPECT_DOUBLE_EQ(values[0], 1.5);
      EXPECT_DOUBLE_EQ(values[1], 2.5);
    }
  });
  // Receiver time = sender depart (5.0) + latency (2.0) + ~0 serialisation.
  EXPECT_NEAR(result.finish_times[1], 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.breakdowns[1].wait, 7.0);
  EXPECT_EQ(result.total_messages, 1u);
  EXPECT_EQ(result.total_bytes, 2 * sizeof(double));
}

TEST(Traffic, RingLedgersCountEachMessageOnceOnEachSide) {
  // Rank r sends two messages of r+1 doubles to its right neighbour, so it
  // receives two messages of left+1 doubles from its left neighbour.
  const int n = 5;
  Machine machine(MachineProfile::ideal());
  const auto result = machine.run(n, [](RankContext& ctx) {
    const int right = (ctx.rank() + 1) % ctx.nranks();
    const int left = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    const std::vector<double> data(static_cast<std::size_t>(ctx.rank()) + 1,
                                   1.0);
    for (int round = 0; round < 2; ++round) {
      ctx.send_bytes(right, round, as_bytes(data));
      (void)ctx.recv_bytes(left, round);
    }
  });
  ASSERT_EQ(result.traffic.size(), static_cast<std::size_t>(n));
  Traffic sum;
  for (int r = 0; r < n; ++r) {
    const Traffic& t = result.traffic[static_cast<std::size_t>(r)];
    const auto left = static_cast<std::size_t>((r + n - 1) % n);
    EXPECT_EQ(t.messages_sent, 2u) << "rank " << r;
    EXPECT_EQ(t.bytes_sent, 2 * (static_cast<std::size_t>(r) + 1) * 8);
    EXPECT_EQ(t.messages_recv, 2u) << "rank " << r;
    EXPECT_EQ(t.bytes_recv, 2 * (left + 1) * 8);
    sum += t;
  }
  EXPECT_EQ(sum.messages_sent, result.total_messages);
  EXPECT_EQ(sum.messages_recv, result.total_messages);
  EXPECT_EQ(sum.bytes_sent, result.total_bytes);
  EXPECT_EQ(sum.bytes_recv, result.total_bytes);
}

TEST(Traffic, WindowDeltasIndependentOfHostSchedule) {
  // A window of collectives, opened right after rank-skewed traffic that
  // the other ranks are still draining: each rank's ledger delta counts only
  // its own window traffic, whatever the backend and worker count.
  const int n = 7;
  const auto window = [n](Machine& machine) {
    std::vector<Traffic> delta(static_cast<std::size_t>(n));
    machine.run(n, [&](RankContext& ctx) {
      comm::Communicator world(ctx);
      if (world.rank() == 0)
        for (int r = 1; r < n; ++r) world.send_value<int>(r, 1, r);
      else
        (void)world.recv_value<int>(0, 1);
      const Traffic before = ctx.traffic();
      world.barrier();
      (void)world.allreduce_sum(static_cast<double>(world.rank()));
      // Ranks s and r exchange (s + r) % 3 doubles each way, so one count
      // vector serves as both send and receive counts.
      std::vector<int> counts(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r)
        counts[static_cast<std::size_t>(r)] = (world.rank() + r) % 3;
      std::vector<double> mine(
          static_cast<std::size_t>(std::accumulate(counts.begin(),
                                                   counts.end(), 0)),
          1.0);
      std::vector<double> got(mine.size());
      world.alltoallv_into<double>(mine, counts, counts, got);
      delta[static_cast<std::size_t>(world.rank())] = ctx.traffic() - before;
    });
    return delta;
  };
  Machine one(MachineProfile::intel_paragon());
  one.set_backend(SimBackend::kFibers);
  one.set_workers(1);
  Machine four(MachineProfile::intel_paragon());
  four.set_backend(SimBackend::kFibers);
  four.set_workers(4);
  Machine threads(MachineProfile::intel_paragon());
  threads.set_backend(SimBackend::kThreads);
  const std::vector<Traffic> reference = window(one);
  Traffic sum;
  for (const Traffic& t : reference) sum += t;
  EXPECT_GT(sum.messages_sent, 0u);
  EXPECT_EQ(sum.messages_recv, sum.messages_sent);
  EXPECT_EQ(sum.bytes_recv, sum.bytes_sent);
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(window(four), reference) << "4 workers, trial " << trial;
    EXPECT_EQ(window(threads), reference) << "threads, trial " << trial;
  }
}

TEST(Machine, ZeroCopySendPathMatchesCopyPath) {
  // Packing into an acquired buffer and moving it into the network must be
  // indistinguishable (payload bytes AND virtual time) from the span path.
  MachineProfile p = MachineProfile::ideal();
  p.msg_latency_sec = 2.0;
  Machine machine(p);
  const auto run = [&](bool zero_copy) {
    return machine.run(2, [&, zero_copy](RankContext& ctx) {
      const std::vector<double> payload{3.25, -7.5, 11.0};
      if (ctx.rank() == 0) {
        ctx.clock().compute(5.0);
        if (zero_copy) {
          Buffer buf = ctx.acquire_buffer(payload.size() * sizeof(double));
          std::memcpy(buf.data(), payload.data(), buf.size());
          ctx.send_bytes(1, 3, std::move(buf));
        } else {
          ctx.send_bytes(1, 3, as_bytes(payload));
        }
      } else {
        const Buffer bytes = ctx.recv_bytes(0, 3);
        ASSERT_EQ(bytes.size(), payload.size() * sizeof(double));
        std::vector<double> values(payload.size());
        std::memcpy(values.data(), bytes.data(), bytes.size());
        EXPECT_EQ(values, payload);
      }
    });
  };
  const auto copy = run(false);
  const auto moved = run(true);
  ASSERT_EQ(copy.finish_times.size(), moved.finish_times.size());
  for (std::size_t r = 0; r < copy.finish_times.size(); ++r)
    EXPECT_DOUBLE_EQ(copy.finish_times[r], moved.finish_times[r]);
  EXPECT_EQ(copy.total_bytes, moved.total_bytes);
}

TEST(Machine, PayloadStorageRecyclesThroughPool) {
  Machine machine(MachineProfile::ideal());
  machine.run(2, [](RankContext& ctx) {
    const int peer = 1 - ctx.rank();
    std::vector<double> data(32, 1.0);
    for (int iter = 0; iter < 8; ++iter) {
      ctx.send_bytes(peer, 1, as_bytes(data));
      (void)ctx.recv_bytes(peer, 1);
    }
    // After warm-up every acquire is served from the freelist; with 2 ranks
    // ping-ponging equal sizes the pool needs at most a handful of buffers.
    EXPECT_LE(ctx.network().pool().misses(), 4u);
    EXPECT_GE(ctx.network().pool().reuses(), 8u);
  });
}

TEST(Machine, ConcurrentChannelCreation) {
  // Every pair talks on several tags at once, and receivers drain in the
  // reverse order senders fill, so the sender and the receiver of a pair
  // race to create each channel. FIFO holds per channel, and
  // exactly one channel exists per (dst, src, tag).
  Machine machine(MachineProfile::ideal());
  machine.set_workers(4);
  constexpr int kRanks = 12;
  constexpr int kTags = 6;
  constexpr int kRounds = 3;
  const auto result = machine.run(kRanks, [](RankContext& ctx) {
    for (int round = 0; round < kRounds; ++round) {
      for (int dst = 0; dst < ctx.nranks(); ++dst) {
        if (dst == ctx.rank()) continue;
        for (int tag = 0; tag < kTags; ++tag) {
          const std::vector<double> data{
              static_cast<double>(ctx.rank() * 1000 + tag * 10 + round)};
          ctx.send_bytes(dst, tag, as_bytes(data));
        }
      }
    }
    for (int src = ctx.nranks() - 1; src >= 0; --src) {
      if (src == ctx.rank()) continue;
      for (int tag = kTags - 1; tag >= 0; --tag) {
        for (int round = 0; round < kRounds; ++round) {
          const Buffer got = ctx.recv_bytes(src, tag);
          double value = 0.0;
          std::memcpy(&value, got.data(), sizeof(value));
          EXPECT_EQ(value, static_cast<double>(src * 1000 + tag * 10 + round));
        }
      }
    }
  });
  EXPECT_EQ(result.live_channels,
            static_cast<std::uint64_t>(kRanks * (kRanks - 1) * kTags));
  EXPECT_EQ(result.pool_reuses + result.pool_misses, result.total_messages);
  EXPECT_EQ(result.mailbox_deliveries, result.total_messages);
  EXPECT_EQ(result.rendezvous_blocks, 0u);
}

TEST(Machine, VirtualTimeIsDeterministicAcrossRuns) {
  MachineProfile p = MachineProfile::intel_paragon();
  Machine machine(p);
  auto program = [&](RankContext& ctx) {
    // Irregular compute + ring communication; host scheduling varies but
    // virtual time must not.
    ctx.clock().compute(1000.0 * (ctx.rank() + 1));
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    std::vector<double> data(64, ctx.rank());
    ctx.send_bytes(next, 1, as_bytes(data));
    (void)ctx.recv_bytes(prev, 1);
  };
  const auto r1 = machine.run(5, program);
  const auto r2 = machine.run(5, program);
  for (int r = 0; r < 5; ++r)
    EXPECT_DOUBLE_EQ(r1.finish_times[static_cast<std::size_t>(r)],
                     r2.finish_times[static_cast<std::size_t>(r)]);
}

TEST(Machine, ExceptionInRankPropagates) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(100);
  EXPECT_THROW(machine.run(2,
                           [](RankContext& ctx) {
                             if (ctx.rank() == 0) throw DataError("boom");
                             // rank 1 exits normally
                           }),
               DataError);
}

TEST(Machine, RecvTimeoutSurfacesAsCommError) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(100);
  EXPECT_THROW(
      machine.run(2,
                  [](RankContext& ctx) {
                    if (ctx.rank() == 0) {
                      (void)ctx.recv_bytes(1, 9);  // never sent: deadlock
                    }
                  }),
      CommError);
}

TEST(Machine, SendToInvalidRankThrows) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [](RankContext& ctx) {
                             std::byte b{0};
                             ctx.send_bytes(5, 0, {&b, 1});
                           }),
               CommError);
}

TEST(Machine, MakespanIsMaxFinishTime) {
  Machine machine(MachineProfile::ideal());
  const auto result = machine.run(3, [](RankContext& ctx) {
    ctx.clock().compute(static_cast<double>(ctx.rank()) * 10.0);
  });
  EXPECT_DOUBLE_EQ(result.makespan(), 20.0);
}

TEST(Machine, MemoryTrafficUsesBandwidth) {
  MachineProfile p = MachineProfile::ideal();
  p.mem_bytes_per_sec = 100.0;
  Machine machine(p);
  const auto result = machine.run(1, [](RankContext& ctx) {
    ctx.clock().memory_traffic(50.0);
  });
  EXPECT_DOUBLE_EQ(result.finish_times[0], 0.5);
}

// ---------------------------------------------------------------------------
// Fiber-scheduler torture tests. These force the M:N machinery through its
// worst cases: far more fibers than workers, parks nested inside hand-rolled
// collectives, channel FIFO under migration, and bit-equality of virtual
// times against the thread-per-rank reference backend.
// ---------------------------------------------------------------------------

/// Hand-rolled barrier on p2p messages (gather-to-0 + broadcast), so the
/// test exercises recv parks nested inside a collective without depending
/// on the comm layer.
void p2p_barrier(RankContext& ctx, std::int64_t tag) {
  const std::byte token{1};
  if (ctx.rank() == 0) {
    for (int r = 1; r < ctx.nranks(); ++r) (void)ctx.recv_bytes(r, tag);
    for (int r = 1; r < ctx.nranks(); ++r) ctx.send_bytes(r, tag, {&token, 1});
  } else {
    ctx.send_bytes(0, tag, {&token, 1});
    (void)ctx.recv_bytes(0, tag);
  }
}

TEST(FiberScheduler, ManyMoreFibersThanWorkers) {
  // 192 rank fibers on 2 workers: every message round parks ~all fibers,
  // so the run queue, the park/unpark handshake and fiber migration across
  // the two workers all churn constantly.
  Machine machine(MachineProfile::ideal());
  machine.set_backend(SimBackend::kFibers);
  machine.set_workers(2);
  const int nranks = 192;
  const int rounds = 5;
  std::vector<int> visits(static_cast<std::size_t>(nranks), 0);
  const auto result = machine.run(nranks, [&](RankContext& ctx) {
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    std::vector<double> data{static_cast<double>(ctx.rank())};
    for (int round = 0; round < rounds; ++round) {
      ctx.send_bytes(next, round, as_bytes(data));
      const Buffer got = ctx.recv_bytes(prev, round);
      double value = 0.0;
      std::memcpy(&value, got.data(), sizeof(value));
      EXPECT_DOUBLE_EQ(value, static_cast<double>(prev));
    }
    ++visits[static_cast<std::size_t>(ctx.rank())];
  });
  for (int v : visits) EXPECT_EQ(v, 1);
  EXPECT_EQ(result.total_messages,
            static_cast<std::uint64_t>(nranks) * rounds);
}

TEST(FiberScheduler, RecvNestedInsideBarrierPhases) {
  // Data messages cross barrier phases: sent before a barrier, received
  // after it — so data recvs park while peers are already parked inside the
  // barrier's own recvs, and the channel must buffer across both.
  Machine machine(MachineProfile::ideal());
  machine.set_backend(SimBackend::kFibers);
  machine.set_workers(3);
  const int nranks = 64;
  machine.run(nranks, [&](RankContext& ctx) {
    const int partner = ctx.rank() ^ 1;  // pair (even, odd)
    const std::int64_t kData = 1000;
    std::vector<double> payload{ctx.rank() * 1.25};
    if (ctx.rank() % 2 == 1) ctx.send_bytes(partner, kData, as_bytes(payload));
    p2p_barrier(ctx, /*tag=*/1);
    if (ctx.rank() % 2 == 0) {
      const Buffer got = ctx.recv_bytes(partner, kData);
      double value = 0.0;
      std::memcpy(&value, got.data(), sizeof(value));
      EXPECT_DOUBLE_EQ(value, partner * 1.25);
      ctx.send_bytes(partner, kData + 1, as_bytes(payload));
    }
    p2p_barrier(ctx, /*tag=*/2);
    if (ctx.rank() % 2 == 1) {
      const Buffer got = ctx.recv_bytes(partner, kData + 1);
      double value = 0.0;
      std::memcpy(&value, got.data(), sizeof(value));
      EXPECT_DOUBLE_EQ(value, partner * 1.25);
    }
  });
}

TEST(FiberScheduler, FifoPreservedPerChannelUnderOversubscription) {
  // One sender floods two tags toward each receiver while the scheduler
  // bounces the receiving fibers between workers; per-(src, tag) order must
  // still be exactly the send order.
  Machine machine(MachineProfile::ideal());
  machine.set_backend(SimBackend::kFibers);
  machine.set_workers(2);
  const int nranks = 48;  // rank 0 sends, everyone else receives
  const int messages = 32;
  machine.run(nranks, [&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < messages; ++i) {
        for (int dst = 1; dst < ctx.nranks(); ++dst) {
          std::vector<double> a{static_cast<double>(i)};
          std::vector<double> b{static_cast<double>(1000 + i)};
          ctx.send_bytes(dst, 7, as_bytes(a));
          ctx.send_bytes(dst, 9, as_bytes(b));
        }
      }
    } else {
      for (int i = 0; i < messages; ++i) {
        const Buffer a = ctx.recv_bytes(0, 7);
        const Buffer b = ctx.recv_bytes(0, 9);
        double va = 0.0;
        double vb = 0.0;
        std::memcpy(&va, a.data(), sizeof(va));
        std::memcpy(&vb, b.data(), sizeof(vb));
        EXPECT_DOUBLE_EQ(va, static_cast<double>(i));
        EXPECT_DOUBLE_EQ(vb, static_cast<double>(1000 + i));
      }
    }
  });
}

TEST(FiberScheduler, EachRankGetsItsOwnExecSlot) {
  // The per-rank local-storage handle must be distinct per fiber and stable
  // across parks — it is what keeps fft/kernel workspaces rank-private when
  // fibers migrate between workers.
  Machine machine(MachineProfile::ideal());
  machine.set_backend(SimBackend::kFibers);
  machine.set_workers(2);
  const int nranks = 32;
  std::vector<util::ExecSlot*> slots(static_cast<std::size_t>(nranks),
                                     nullptr);
  machine.run(nranks, [&](RankContext& ctx) {
    util::ExecSlot* before = util::ExecSlot::current();
    ASSERT_NE(before, nullptr);
    p2p_barrier(ctx, /*tag=*/5);  // park at least once
    EXPECT_EQ(util::ExecSlot::current(), before);
    slots[static_cast<std::size_t>(ctx.rank())] = before;
  });
  std::sort(slots.begin(), slots.end());
  EXPECT_EQ(std::unique(slots.begin(), slots.end()), slots.end());
  EXPECT_EQ(std::count(slots.begin(), slots.end(), nullptr), 0);
}

TEST(FiberScheduler, VirtualTimesBitIdenticalToThreadBackend) {
  // The determinism gate: seeded pseudo-random compute + permutation
  // exchanges, run under both backends; every per-rank virtual finish time
  // and breakdown component must be bit-identical (EXPECT_DOUBLE_EQ is an
  // exact comparison).
  for (const std::uint64_t seed : {1ULL, 7ULL, 20260808ULL}) {
    const int nranks = 24;
    auto program = [seed, nranks](RankContext& ctx) {
      std::uint64_t offs = seed;  // rank-independent offset stream
      std::uint64_t mine = seed * 1000003ULL +
                           static_cast<std::uint64_t>(ctx.rank());
      const auto next = [](std::uint64_t& s) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
      };
      for (int round = 0; round < 8; ++round) {
        ctx.clock().compute(static_cast<double>(next(mine) % 10000) + 1.0);
        const int off = 1 + static_cast<int>(next(offs) %
                                             static_cast<std::uint64_t>(
                                                 nranks - 1));
        const int dst = (ctx.rank() + off) % nranks;
        const int src = (ctx.rank() + nranks - off) % nranks;
        std::vector<double> data(1 + next(mine) % 64,
                                 static_cast<double>(ctx.rank()));
        ctx.send_bytes(dst, round, as_bytes(data));
        (void)ctx.recv_bytes(src, round);
      }
    };
    Machine fibers(MachineProfile::intel_paragon());
    fibers.set_backend(SimBackend::kFibers);
    fibers.set_workers(2);
    Machine threads(MachineProfile::intel_paragon());
    threads.set_backend(SimBackend::kThreads);
    const auto rf = fibers.run(nranks, program);
    const auto rt = threads.run(nranks, program);
    ASSERT_EQ(rf.finish_times.size(), rt.finish_times.size());
    for (std::size_t r = 0; r < rf.finish_times.size(); ++r) {
      EXPECT_DOUBLE_EQ(rf.finish_times[r], rt.finish_times[r]) << "rank " << r;
      EXPECT_DOUBLE_EQ(rf.breakdowns[r].compute, rt.breakdowns[r].compute);
      EXPECT_DOUBLE_EQ(rf.breakdowns[r].overhead, rt.breakdowns[r].overhead);
      EXPECT_DOUBLE_EQ(rf.breakdowns[r].wait, rt.breakdowns[r].wait);
    }
    EXPECT_EQ(rf.total_messages, rt.total_messages);
    EXPECT_EQ(rf.total_bytes, rt.total_bytes);
  }
}

TEST(FiberScheduler, DeadlockDetectedWithoutWallClockWait) {
  // Quiescence detection: a recv that can never be satisfied must throw as
  // soon as all live fibers are parked — the 100 ms budget below is only
  // for the thread-backend fallback on platforms without fibers.
  Machine machine(MachineProfile::ideal());
  machine.set_backend(SimBackend::kFibers);
  machine.set_recv_timeout_ms(100);
  try {
    machine.run(3, [](RankContext& ctx) {
      if (ctx.rank() != 0) return;
      // The abandoned receive frees the mailbox's waiter slot, so a retry
      // throws the same diagnostic instead of tripping an assertion.
      EXPECT_THROW((void)ctx.recv_bytes(1, 9), CommError);  // never sent
      (void)ctx.recv_bytes(1, 9);
    });
    FAIL() << "deadlocked run should throw";
  } catch (const CommError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("src=1 tag=9"), std::string::npos) << msg;
  }
}

TEST(FiberScheduler, ThreadBackendStillSelectable) {
  // The fallback backend stays first-class: explicit selection must run the
  // same program with the same results.
  Machine machine(MachineProfile::ideal());
  machine.set_backend(SimBackend::kThreads);
  const auto result = machine.run(4, [](RankContext& ctx) {
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    std::vector<double> data{1.0};
    ctx.send_bytes(next, 1, as_bytes(data));
    (void)ctx.recv_bytes(prev, 1);
  });
  EXPECT_EQ(result.total_messages, 4u);
}

}  // namespace
}  // namespace agcm::simnet
