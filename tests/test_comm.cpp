// Tests for the typed communicator: point-to-point semantics, every
// collective against its sequential definition, sub-communicators, and the
// 2-D process mesh. Collectives are swept over rank counts (including
// non-powers of two, which exercise the binomial-tree edge cases).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "comm/communicator.hpp"
#include "comm/mesh2d.hpp"
#include "comm/packed.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"

namespace agcm::comm {
namespace {

using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;
using simnet::SimBackend;

Machine make_machine() {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  return machine;
}

TEST(Communicator, SendRecvTyped) {
  auto machine = make_machine();
  machine.run(2, [](RankContext& ctx) {
    Communicator comm(ctx);
    if (comm.rank() == 0) {
      const std::vector<int> data{1, 2, 3};
      comm.send<int>(1, 5, data);
    } else {
      std::vector<int> data(3);
      comm.recv<int>(0, 5, data);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Communicator, RecvSizeMismatchThrows) {
  auto machine = make_machine();
  EXPECT_THROW(machine.run(2,
                           [](RankContext& ctx) {
                             Communicator comm(ctx);
                             if (comm.rank() == 0) {
                               const std::vector<int> data{1, 2, 3};
                               comm.send<int>(1, 5, data);
                             } else {
                               std::vector<int> data(5);  // wrong size
                               comm.recv<int>(0, 5, data);
                             }
                           }),
               CommError);
}

TEST(Communicator, RecvAnySize) {
  auto machine = make_machine();
  machine.run(2, [](RankContext& ctx) {
    Communicator comm(ctx);
    if (comm.rank() == 0) {
      const std::vector<double> data{4.0, 5.0};
      comm.send<double>(1, 2, data);
    } else {
      const auto data = comm.recv_view<double>(0, 2);
      EXPECT_EQ(data.size(), 2u);
      EXPECT_DOUBLE_EQ(data[1], 5.0);
    }
  });
}

TEST(Communicator, SendValueRecvValue) {
  auto machine = make_machine();
  machine.run(2, [](RankContext& ctx) {
    Communicator comm(ctx);
    if (comm.rank() == 0) comm.send_value<int>(1, 1, 42);
    else EXPECT_EQ(comm.recv_value<int>(0, 1), 42);
  });
}

TEST(Communicator, TagOutOfRangeThrows) {
  auto machine = make_machine();
  EXPECT_THROW(machine.run(1,
                           [](RankContext& ctx) {
                             Communicator comm(ctx);
                             comm.send_value<int>(0, -1, 0);
                           }),
               CommError);
}

TEST(Communicator, InvalidRankThrows) {
  auto machine = make_machine();
  EXPECT_THROW(machine.run(1,
                           [](RankContext& ctx) {
                             Communicator comm(ctx);
                             comm.send_value<int>(3, 0, 0);
                           }),
               CommError);
}

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BroadcastReachesEveryRank) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    for (int root = 0; root < std::min(p, 3); ++root) {
      std::vector<double> data(5, comm.rank() == root ? 3.25 : 0.0);
      comm.broadcast<double>(root, data);
      for (double v : data) EXPECT_DOUBLE_EQ(v, 3.25);
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumMatchesClosedForm) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const std::vector<double> mine{static_cast<double>(comm.rank() + 1)};
    std::vector<double> out{0.0};
    comm.reduce<double>(0, mine, out, [](double a, double b) { return a + b; });
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(out[0], p * (p + 1) / 2.0);
    }
  });
}

TEST_P(CollectiveSweep, AllreduceSumAndMax) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(1.0), static_cast<double>(p));
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     static_cast<double>(p - 1));
  });
}

TEST_P(CollectiveSweep, GatherScatterRoundTrip) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Uneven counts: rank r contributes r+1 values.
    std::vector<int> counts(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) counts[static_cast<std::size_t>(r)] = r + 1;
    std::vector<double> mine(static_cast<std::size_t>(comm.rank() + 1),
                             100.0 + comm.rank());
    const auto all = comm.gatherv<double>(0, mine, counts);
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(all.size()), p * (p + 1) / 2);
      std::size_t pos = 0;
      for (int r = 0; r < p; ++r)
        for (int c = 0; c <= r; ++c) EXPECT_DOUBLE_EQ(all[pos++], 100.0 + r);
    }
    const auto back = comm.scatterv<double>(0, all, counts);
    ASSERT_EQ(back.size(), mine.size());
    for (std::size_t i = 0; i < back.size(); ++i)
      EXPECT_DOUBLE_EQ(back[i], mine[i]);
  });
}

TEST_P(CollectiveSweep, AllgathervEveryoneSeesEverything) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const std::vector<int> ones(static_cast<std::size_t>(p), 1);
    const std::vector<double> mine{static_cast<double>(comm.rank()) * 2.0};
    const auto all = comm.allgatherv<double>(mine, ones);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r)
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], 2.0 * r);
  });
}

TEST_P(CollectiveSweep, AlltoallvPersonalisedExchange) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Rank r sends one value 1000*r + d to every destination d.
    std::vector<int> counts(static_cast<std::size_t>(p), 1);
    std::vector<double> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      send[static_cast<std::size_t>(d)] = 1000.0 * comm.rank() + d;
    const auto recv = comm.alltoallv<double>(send, counts, counts);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int s = 0; s < p; ++s)
      EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(s)],
                       1000.0 * s + comm.rank());
  });
}

TEST_P(CollectiveSweep, AlltoallvWithZeroCounts) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Only even ranks send, only to rank 0.
    std::vector<int> send_counts(static_cast<std::size_t>(p), 0);
    std::vector<double> send;
    if (comm.rank() % 2 == 0) {
      send_counts[0] = 2;
      send = {1.0 * comm.rank(), 1.0 * comm.rank() + 0.5};
    }
    std::vector<int> recv_counts(static_cast<std::size_t>(p), 0);
    if (comm.rank() == 0)
      for (int r = 0; r < p; r += 2) recv_counts[static_cast<std::size_t>(r)] = 2;
    const auto recv = comm.alltoallv<double>(send, send_counts, recv_counts);
    if (comm.rank() == 0) {
      std::size_t pos = 0;
      for (int r = 0; r < p; r += 2) {
        EXPECT_DOUBLE_EQ(recv[pos++], 1.0 * r);
        EXPECT_DOUBLE_EQ(recv[pos++], 1.0 * r + 0.5);
      }
      EXPECT_EQ(pos, recv.size());
    } else {
      EXPECT_TRUE(recv.empty());
    }
  });
}

TEST_P(CollectiveSweep, BarrierAlignsVirtualClocks) {
  const int p = GetParam();
  auto machine = make_machine();
  const auto result = machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    ctx.clock().compute(100.0 * (comm.rank() + 1));
    comm.barrier();
    EXPECT_GE(ctx.clock().now(), 100.0 * p);
  });
  (void)result;
}

TEST_P(CollectiveSweep, BarrierCostsFourPMinusOneMessagesOfEightBytes) {
  // Two allreduces of one double, each a reduce plus a broadcast of P-1
  // messages: 4(P-1) messages and 32(P-1) bytes across all ranks.
  const int p = GetParam();
  auto machine = make_machine();
  std::vector<simnet::Traffic> delta(static_cast<std::size_t>(p));
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    comm.barrier();  // warm-up: the window below must not depend on it
    const simnet::Traffic before = ctx.traffic();
    comm.barrier();
    delta[static_cast<std::size_t>(comm.rank())] = ctx.traffic() - before;
  });
  simnet::Traffic sum;
  for (const simnet::Traffic& d : delta) sum += d;
  const auto links = static_cast<std::uint64_t>(p - 1);
  EXPECT_EQ(sum.messages_sent, 4 * links);
  EXPECT_EQ(sum.bytes_sent, 32 * links);
  EXPECT_EQ(sum.messages_recv, sum.messages_sent);
  EXPECT_EQ(sum.bytes_recv, sum.bytes_sent);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST(Split, GroupsByColorOrdersByKey) {
  auto machine = make_machine();
  machine.run(6, [](RankContext& ctx) {
    Communicator world(ctx);
    // Two groups: even and odd ranks; key reverses the order.
    const int color = world.rank() % 2;
    const Communicator sub = world.split(color, -world.rank());
    EXPECT_EQ(sub.size(), 3);
    // Highest old rank gets new rank 0 (smallest key).
    const int expected_new_rank = (5 - world.rank()) / 2 - 0;
    EXPECT_EQ(sub.rank(), expected_new_rank);
    // Traffic stays inside the group.
    const double total = sub.allreduce_sum(static_cast<double>(world.rank()));
    EXPECT_DOUBLE_EQ(total, color == 0 ? 0.0 + 2.0 + 4.0 : 1.0 + 3.0 + 5.0);
  });
}

TEST(Split, NestedSplitWorks) {
  auto machine = make_machine();
  machine.run(4, [](RankContext& ctx) {
    Communicator world(ctx);
    const Communicator half = world.split(world.rank() / 2, world.rank());
    const Communicator solo = half.split(half.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_DOUBLE_EQ(solo.allreduce_sum(7.0), 7.0);
  });
}

TEST(Mesh2D, CoordinatesAndNeighbours) {
  auto machine = make_machine();
  machine.run(6, [](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 3);
    const auto c = mesh.coord();
    EXPECT_EQ(mesh.rank_of(c), world.rank());
    EXPECT_EQ(c.row, world.rank() / 3);
    EXPECT_EQ(c.col, world.rank() % 3);
    // Longitude wraps.
    EXPECT_EQ(mesh.east(), c.row * 3 + (c.col + 1) % 3);
    EXPECT_EQ(mesh.west(), c.row * 3 + (c.col + 2) % 3);
    // Latitude does not.
    if (c.row == 1) EXPECT_FALSE(mesh.north().has_value());
    else EXPECT_EQ(*mesh.north(), world.rank() + 3);
    if (c.row == 0) EXPECT_FALSE(mesh.south().has_value());
    else EXPECT_EQ(*mesh.south(), world.rank() - 3);
  });
}

TEST(Mesh2D, RowAndColCommunicators) {
  auto machine = make_machine();
  machine.run(6, [](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 3);
    EXPECT_EQ(mesh.row_comm().size(), 3);
    EXPECT_EQ(mesh.col_comm().size(), 2);
    EXPECT_EQ(mesh.row_comm().rank(), mesh.coord().col);
    EXPECT_EQ(mesh.col_comm().rank(), mesh.coord().row);
    // Row sums collect the ranks of one mesh row only.
    const double row_sum =
        mesh.row_comm().allreduce_sum(static_cast<double>(world.rank()));
    const double expected =
        mesh.coord().row == 0 ? 0.0 + 1.0 + 2.0 : 3.0 + 4.0 + 5.0;
    EXPECT_DOUBLE_EQ(row_sum, expected);
  });
}

TEST(Mesh2D, SizeMismatchThrows) {
  auto machine = make_machine();
  EXPECT_THROW(machine.run(5,
                           [](RankContext& ctx) {
                             Communicator world(ctx);
                             Mesh2D mesh(world, 2, 3);
                           }),
               ConfigError);
}

// --- zero-copy pooled transport APIs ----------------------------------------

TEST(ZeroCopy, PackerSendRecvViewRoundTrip) {
  auto machine = make_machine();
  machine.run(2, [](RankContext& ctx) {
    Communicator comm(ctx);
    if (comm.rank() == 0) {
      PackedWriter w = comm.packer(4 * sizeof(double));
      auto slots = w.append<double>(2);
      slots[0] = 1.5;
      slots[1] = 2.5;
      const std::vector<double> tail{3.5, 4.5};
      w.write<double>(tail);
      comm.send_packed(1, 9, std::move(w));
    } else {
      const TypedView<double> view = comm.recv_view<double>(0, 9);
      ASSERT_EQ(view.size(), 4u);
      EXPECT_DOUBLE_EQ(view[0], 1.5);
      EXPECT_DOUBLE_EQ(view[3], 4.5);
      // The span conversion stays valid while the view owns the payload.
      std::span<const double> s = view;
      EXPECT_DOUBLE_EQ(s[2], 3.5);
    }
  });
}

TEST(ZeroCopy, SendBufferRecvPackedSegments) {
  auto machine = make_machine();
  machine.run(2, [](RankContext& ctx) {
    Communicator comm(ctx);
    if (comm.rank() == 0) {
      simnet::Buffer buf = comm.acquire(6 * sizeof(double));
      auto* d = reinterpret_cast<double*>(buf.data());
      for (int i = 0; i < 6; ++i) d[i] = 10.0 + i;
      comm.send_buffer(1, 3, std::move(buf));
    } else {
      PackedReader r = comm.recv_packed(0, 3);
      const auto head = r.view<double>(2);
      EXPECT_DOUBLE_EQ(head[1], 11.0);
      std::vector<double> tail(4);
      r.read<double>(tail);
      EXPECT_DOUBLE_EQ(tail[3], 15.0);
      EXPECT_EQ(r.remaining_bytes(), 0u);
    }
  });
}

TEST(ZeroCopy, InteroperatesWithTypedRecv) {
  // A buffer sent through the zero-copy path is a normal typed message on
  // the wire: the receiver may use the classic recv<T>() and vice versa.
  auto machine = make_machine();
  machine.run(2, [](RankContext& ctx) {
    Communicator comm(ctx);
    if (comm.rank() == 0) {
      PackedWriter w = comm.packer(3 * sizeof(int));
      const std::vector<int> vals{7, 8, 9};
      w.write<int>(vals);
      comm.send_packed(1, 4, std::move(w));
      comm.send<int>(1, 5, vals);
    } else {
      std::vector<int> a(3);
      comm.recv<int>(0, 4, a);
      EXPECT_EQ(a, (std::vector<int>{7, 8, 9}));
      const auto b = comm.recv_view<int>(0, 5);
      EXPECT_EQ(b[2], 9);
    }
  });
}

TEST(ZeroCopy, WriterOverflowThrows) {
  PackedWriter w(simnet::Buffer::unpooled(std::vector<std::byte>(8)));
  (void)w.append<double>(1);
  EXPECT_THROW(w.append<double>(1), CommError);
}

TEST(ZeroCopy, WriterTakeBeforeFullThrows) {
  PackedWriter w(simnet::Buffer::unpooled(std::vector<std::byte>(16)));
  (void)w.append<double>(1);
  EXPECT_THROW(w.take(), CommError);
}

TEST(ZeroCopy, ReaderUnderflowThrows) {
  PackedReader r(simnet::Buffer::unpooled(std::vector<std::byte>(8)));
  (void)r.view<double>(1);
  EXPECT_THROW(r.view<double>(1), CommError);
}

TEST(ZeroCopy, RecvViewSizeMismatchThrows) {
  auto machine = make_machine();
  EXPECT_THROW(machine.run(2,
                           [](RankContext& ctx) {
                             Communicator comm(ctx);
                             if (comm.rank() == 0) {
                               const std::vector<std::int32_t> d{1, 2, 3};
                               comm.send<std::int32_t>(1, 1, d);
                             } else {
                               // 12 bytes is not a whole number of doubles.
                               comm.recv_view<double>(0, 1);
                             }
                           }),
               CommError);
}

TEST_P(CollectiveSweep, AlltoallvPackedMatchesAlltoallv) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Rank r sends r+1 values to destination d (uneven block sizes with a
    // non-empty self block).
    const auto mine = static_cast<std::size_t>(comm.rank() + 1);
    std::vector<int> send_counts(static_cast<std::size_t>(p),
                                 static_cast<int>(mine));
    std::vector<int> recv_counts(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) recv_counts[static_cast<std::size_t>(s)] = s + 1;
    std::vector<double> send(mine * static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      for (std::size_t x = 0; x < mine; ++x)
        send[static_cast<std::size_t>(d) * mine + x] =
            1000.0 * comm.rank() + 10.0 * d + static_cast<double>(x);
    const auto reference = comm.alltoallv<double>(send, send_counts,
                                                  recv_counts);

    std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p)),
        recv_bytes(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      send_bytes[static_cast<std::size_t>(r)] = mine * sizeof(double);
      recv_bytes[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(r + 1) * sizeof(double);
    }
    std::vector<double> packed(reference.size());
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r)
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] + static_cast<std::size_t>(r + 1);
    comm.alltoallv_packed(
        send_bytes, recv_bytes,
        [&](int dst, PackedWriter& w) {
          w.write<double>(std::span<const double>(send).subspan(
              static_cast<std::size_t>(dst) * mine, mine));
        },
        [&](int src, PackedReader& r) {
          r.read<double>(std::span<double>(packed).subspan(
              offsets[static_cast<std::size_t>(src)],
              static_cast<std::size_t>(src + 1)));
        });
    ASSERT_EQ(packed.size(), reference.size());
    for (std::size_t x = 0; x < packed.size(); ++x)
      EXPECT_DOUBLE_EQ(packed[x], reference[x]) << "at " << x;
  });
}

TEST_P(CollectiveSweep, AlltoallvPackedSkipsZeroBlocks) {
  const int p = GetParam();
  auto machine = make_machine();
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Only rank 0 receives, only from odd ranks (zero self block for all).
    std::vector<std::size_t> send_bytes(static_cast<std::size_t>(p), 0),
        recv_bytes(static_cast<std::size_t>(p), 0);
    if (comm.rank() % 2 == 1) send_bytes[0] = sizeof(double);
    if (comm.rank() == 0)
      for (int r = 1; r < p; r += 2)
        recv_bytes[static_cast<std::size_t>(r)] = sizeof(double);
    double got_sum = 0.0;
    int unpack_calls = 0;
    comm.alltoallv_packed(
        send_bytes, recv_bytes,
        [&](int, PackedWriter& w) {
          const double v = static_cast<double>(comm.rank());
          w.write<double>(std::span<const double>(&v, 1));
        },
        [&](int src, PackedReader& r) {
          ++unpack_calls;
          got_sum += r.view<double>(1)[0];
          EXPECT_EQ(src % 2, 1);
        });
    if (comm.rank() == 0) {
      EXPECT_EQ(unpack_calls, (p - 1 + 1) / 2);
      double expect_sum = 0.0;
      for (int r = 1; r < p; r += 2) expect_sum += static_cast<double>(r);
      EXPECT_DOUBLE_EQ(got_sum, expect_sum);
    } else {
      EXPECT_EQ(unpack_calls, 0);
    }
  });
}

// --- the all-to-all rendezvous ---------------------------------------------

/// The message-based pairwise exchange that alltoallv_packed replays, as
/// real messages on its own tag: the self block without a message, then
/// P-1 rounds that send to rank+s and receive from rank-s, empty blocks
/// skipped. The rendezvous must charge exactly what this loop charges.
template <typename PackFn, typename UnpackFn>
void pairwise_reference(const Communicator& comm,
                        std::span<const std::size_t> send_bytes,
                        std::span<const std::size_t> recv_bytes, PackFn&& pack,
                        UnpackFn&& unpack) {
  constexpr int kTag = 77;
  const int p = comm.size();
  const int me = comm.rank();
  if (send_bytes[static_cast<std::size_t>(me)] > 0) {
    PackedWriter writer(comm.acquire(send_bytes[static_cast<std::size_t>(me)]));
    pack(me, writer);
    PackedReader reader(writer.take());
    unpack(me, reader);
  }
  for (int s = 1; s < p; ++s) {
    const int dst = (me + s) % p;
    const int src = (me - s + p) % p;
    if (const std::size_t n = send_bytes[static_cast<std::size_t>(dst)]) {
      PackedWriter writer(comm.acquire(n));
      pack(dst, writer);
      comm.send_buffer(dst, kTag, writer.take());
    }
    if (recv_bytes[static_cast<std::size_t>(src)] > 0) {
      PackedReader reader(comm.recv_buffer(src, kTag));
      unpack(src, reader);
    }
  }
}

/// Bytes `src` sends `dst` in call `call`: pseudo-random, a third of them
/// zero, so both ends agree without communicating.
std::size_t block_bytes(int src, int dst, int call) {
  std::uint64_t h = static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ull ^
                    static_cast<std::uint64_t>(dst) * 0xC2B2AE3D27D4EB4Full ^
                    static_cast<std::uint64_t>(call) * 0x165667B19E3779F9ull;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h % 3 == 0 ? 0 : static_cast<std::size_t>(h % 97) * 8 + 1;
}

struct ExchangeRun {
  simnet::RunResult result;
  std::vector<std::vector<std::byte>> received;  ///< per rank, unpack order
};

/// Three all-to-alls of pseudo-random block sizes on P ranks whose entry
/// clocks are skewed by rank-dependent compute, through `reference` or
/// through Communicator::alltoallv_packed.
ExchangeRun run_exchanges(Machine& machine, int p, bool reference) {
  ExchangeRun run;
  run.received.resize(static_cast<std::size_t>(p));
  run.result = machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int me = comm.rank();
    std::vector<std::byte>& got = run.received[static_cast<std::size_t>(me)];
    for (int call = 0; call < 3; ++call) {
      ctx.clock().compute(1.0e4 * ((me * 7 + call * 3) % 11 + 1));
      std::vector<std::size_t> send(static_cast<std::size_t>(p));
      std::vector<std::size_t> recv(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        send[static_cast<std::size_t>(r)] = block_bytes(me, r, call);
        recv[static_cast<std::size_t>(r)] = block_bytes(r, me, call);
      }
      recv[static_cast<std::size_t>(me)] = send[static_cast<std::size_t>(me)];
      const auto pack = [&](int dst, PackedWriter& w) {
        const auto block = w.append<std::byte>(w.size_bytes());
        for (std::size_t k = 0; k < block.size(); ++k)
          block[k] = static_cast<std::byte>(me * 31 + dst * 7 + call + k);
      };
      const auto unpack = [&](int, PackedReader& r) {
        const auto block = r.view<std::byte>(r.size_bytes());
        got.insert(got.end(), block.begin(), block.end());
      };
      if (reference)
        pairwise_reference(comm, send, recv, pack, unpack);
      else
        comm.alltoallv_packed(send, recv, pack, unpack);
    }
  });
  return run;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(AlltoallvRendezvous, ReplaysThePairwiseScheduleBitForBit) {
  struct Host {
    const char* name;
    SimBackend backend;
    int workers;
  };
  for (const Host host : {Host{"1 fiber worker", SimBackend::kFibers, 1},
                          Host{"4 fiber workers", SimBackend::kFibers, 4},
                          Host{"threads", SimBackend::kThreads, 0}}) {
    for (const int p : {2, 3, 5, 8, 16}) {
      SCOPED_TRACE(std::string(host.name) + ", P=" + std::to_string(p));
      Machine machine(MachineProfile::intel_paragon());
      machine.set_backend(host.backend);
      machine.set_workers(host.workers);
      machine.set_recv_timeout_ms(10'000);
      const ExchangeRun want = run_exchanges(machine, p, /*reference=*/true);
      const ExchangeRun got = run_exchanges(machine, p, /*reference=*/false);
      EXPECT_GT(want.result.total_messages, 0u);
      for (std::size_t r = 0; r < static_cast<std::size_t>(p); ++r) {
        EXPECT_TRUE(same_bits(got.result.finish_times[r],
                              want.result.finish_times[r]))
            << "rank " << r;
        const auto& g = got.result.breakdowns[r];
        const auto& w = want.result.breakdowns[r];
        EXPECT_TRUE(same_bits(g.compute, w.compute)) << "rank " << r;
        EXPECT_TRUE(same_bits(g.overhead, w.overhead)) << "rank " << r;
        EXPECT_TRUE(same_bits(g.wait, w.wait)) << "rank " << r;
        EXPECT_EQ(got.result.traffic[r], want.result.traffic[r]) << "rank " << r;
        EXPECT_EQ(got.received[r], want.received[r]) << "rank " << r;
      }
    }
  }
}

/// Every host backend the error-path tests run on.
std::vector<Machine> every_backend() {
  std::vector<Machine> machines;
  for (const int workers : {1, 4}) {
    machines.emplace_back(MachineProfile::ideal());
    machines.back().set_backend(SimBackend::kFibers);
    machines.back().set_workers(workers);
  }
  machines.emplace_back(MachineProfile::ideal());
  machines.back().set_backend(SimBackend::kThreads);
  for (Machine& machine : machines) machine.set_recv_timeout_ms(10'000);
  return machines;
}

/// Runs one all-to-all on 4 ranks in which rank 0 sends rank 1
/// `sent` bytes while rank 1 expects `expected`; every other pair is a
/// matching 8-byte block. Returns the ranks that caught a CommError, after
/// checking that a correct all-to-all on the same communicator still works.
std::vector<int> mismatched_exchange(Machine& machine, std::size_t sent,
                                     std::size_t expected) {
  constexpr int kRanks = 4;
  std::vector<int> threw(kRanks, 0);
  machine.run(kRanks, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int me = comm.rank();
    std::vector<std::size_t> send(kRanks, 8), recv(kRanks, 8);
    if (me == 0) send[1] = sent;
    if (me == 1) recv[0] = expected;
    const auto pack = [](int, PackedWriter& w) {
      (void)w.append<std::byte>(w.size_bytes());
    };
    const auto unpack = [](int, PackedReader& r) {
      (void)r.view<std::byte>(r.size_bytes());
    };
    try {
      comm.alltoallv_packed(send, recv, pack, unpack);
    } catch (const CommError&) {
      threw[static_cast<std::size_t>(me)] = 1;
    }
    const std::vector<std::size_t> eights(kRanks, 8);
    comm.alltoallv_packed(eights, eights, pack, unpack);
  });
  return threw;
}

TEST(AlltoallvRendezvous, ReceiveCountWithoutSendThrowsOnEveryRank) {
  for (Machine& machine : every_backend())
    EXPECT_EQ(mismatched_exchange(machine, 0, 8), std::vector<int>(4, 1));
}

TEST(AlltoallvRendezvous, SendWithoutReceiveCountThrowsOnEveryRank) {
  for (Machine& machine : every_backend())
    EXPECT_EQ(mismatched_exchange(machine, 8, 0), std::vector<int>(4, 1));
}

TEST(AlltoallvRendezvous, BlockSizeMismatchThrowsOnEveryRank) {
  for (Machine& machine : every_backend())
    EXPECT_EQ(mismatched_exchange(machine, 16, 8), std::vector<int>(4, 1));
}

TEST(AlltoallvRendezvous, RankThatThrowsBeforeArrivingFailsTheRunPromptly) {
  // The other ranks wait in the rendezvous for a rank that never comes:
  // the fiber scheduler's deadlock sweep wakes them at once, the thread
  // backend after its receive timeout, and the run rethrows the first error.
  const auto run = [](Machine& machine) {
    const auto start = std::chrono::steady_clock::now();
    try {
      machine.run(4, [](RankContext& ctx) {
        Communicator comm(ctx);
        if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
        const std::vector<int> ones(4, 1), mine(4, comm.rank());
        (void)comm.alltoallv<int>(mine, ones, ones);
      });
      ADD_FAILURE() << "the run did not fail";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "rank 2 failed");
    }
    return std::chrono::steady_clock::now() - start;
  };
  for (Machine& machine : every_backend()) {
    if (machine.backend() == SimBackend::kThreads)
      machine.set_recv_timeout_ms(200);
    EXPECT_LT(run(machine), std::chrono::seconds(5));
  }
}

TEST(AlltoallvRendezvous, SendsNoHostMessages) {
  // The virtual messages are all in the ledgers, but none of them touches
  // a mailbox: no channel is ever created.
  constexpr int kRanks = 6;
  Machine machine(MachineProfile::intel_paragon());
  const auto result = machine.run(kRanks, [](RankContext& ctx) {
    Communicator comm(ctx);
    const std::vector<int> ones(kRanks, 1), mine(kRanks, comm.rank());
    for (int call = 0; call < 3; ++call) {
      const std::vector<int> got = comm.alltoallv<int>(mine, ones, ones);
      for (int r = 0; r < kRanks; ++r)
        EXPECT_EQ(got[static_cast<std::size_t>(r)], r);
    }
    const std::vector<std::size_t> bytes(kRanks, 16);
    comm.alltoallv_packed(
        bytes, bytes,
        [](int, PackedWriter& w) { (void)w.append<double>(2); },
        [](int, PackedReader& r) { (void)r.view<double>(2); });
  });
  EXPECT_EQ(result.total_messages, 4u * kRanks * (kRanks - 1));
  EXPECT_EQ(result.rendezvous_blocks, result.total_messages);
  EXPECT_EQ(result.mailbox_deliveries, 0u);
  EXPECT_EQ(result.live_channels, 0u);
}

TEST(Comm, MessageCostFlowsThroughCollectives) {
  simnet::MachineProfile p = simnet::MachineProfile::ideal();
  p.msg_latency_sec = 1.0;
  Machine machine(p);
  machine.set_recv_timeout_ms(10'000);
  const auto result = machine.run(4, [](RankContext& ctx) {
    Communicator comm(ctx);
    std::vector<double> data(1, 0.0);
    comm.broadcast<double>(0, data);
  });
  // Binomial broadcast over 4 ranks: the deepest leaf is 2 hops away.
  EXPECT_GE(result.makespan(), 2.0);
  EXPECT_LT(result.makespan(), 3.0);
  EXPECT_EQ(result.total_messages, 3u);
}

}  // namespace
}  // namespace agcm::comm
