// Tests for the typed communicator: point-to-point semantics, every
// collective against its sequential definition, sub-communicators, and the
// 2-D process mesh. Collectives are swept over rank counts (including
// non-powers of two, which exercise the binomial-tree edge cases).
#include <gtest/gtest.h>

#include <numeric>

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
