// Tests for the I/O module: byte-order reversal, history round trips
// (including foreign-endian files — the paper's Paragon workaround),
// truncation/corruption failure injection, and parallel gather/scatter.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "comm/mesh2d.hpp"
#include "dynamics/state.hpp"
#include "io/byteswap.hpp"
#include "io/config.hpp"
#include "io/history.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace agcm::io {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Decomp2D;
using grid::LatLonGrid;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Byteswap, InvolutionOnScalars) {
  EXPECT_EQ(byteswap_value(byteswap_value(0x12345678u)), 0x12345678u);
  EXPECT_EQ(byteswap_value(std::uint16_t{0xABCD}), std::uint16_t{0xCDAB});
  EXPECT_EQ(byteswap_value(std::uint32_t{0x01020304}),
            std::uint32_t{0x04030201});
  const double x = -1234.5678e-12;
  EXPECT_DOUBLE_EQ(byteswap_value(byteswap_value(x)), x);
}

TEST(Byteswap, SpanInvolution) {
  Rng rng(3);
  std::vector<double> data(100);
  for (double& v : data) v = rng.normal();
  auto copy = data;
  byteswap_span<double>(copy);
  // Swapped data is (almost surely) different...
  EXPECT_GT(max_abs_diff(copy, data), 0.0);
  byteswap_span<double>(copy);
  // ...and swapping again restores it exactly.
  EXPECT_DOUBLE_EQ(max_abs_diff(copy, data), 0.0);
}

HistoryFile sample_history(int nlon = 6, int nlat = 4, int nlev = 2) {
  HistoryFile h;
  h.nlon = nlon;
  h.nlat = nlat;
  h.nlev = nlev;
  h.time_sec = 86400.0;
  h.step = 192;
  Rng rng(11);
  for (const char* name : {"h", "theta"}) {
    HistoryField field;
    field.name = name;
    field.values.resize(static_cast<std::size_t>(nlon) * nlat * nlev);
    for (double& v : field.values) v = rng.uniform(-100.0, 100.0);
    h.fields.push_back(std::move(field));
  }
  return h;
}

TEST(History, RoundTripNativeEndian) {
  const auto path = temp_path("agcm_test_native.hist");
  const HistoryFile original = sample_history();
  write_history(path, original);
  const HistoryFile loaded = read_history(path);
  EXPECT_EQ(loaded.nlon, original.nlon);
  EXPECT_EQ(loaded.nlat, original.nlat);
  EXPECT_EQ(loaded.nlev, original.nlev);
  EXPECT_DOUBLE_EQ(loaded.time_sec, original.time_sec);
  EXPECT_EQ(loaded.step, original.step);
  ASSERT_EQ(loaded.fields.size(), original.fields.size());
  for (std::size_t f = 0; f < loaded.fields.size(); ++f) {
    EXPECT_EQ(loaded.fields[f].name, original.fields[f].name);
    EXPECT_DOUBLE_EQ(
        max_abs_diff(loaded.fields[f].values, original.fields[f].values), 0.0);
  }
  std::remove(path.c_str());
}

TEST(History, RoundTripForeignEndian) {
  // The paper's scenario: history data written on a machine with the other
  // byte order; the reader must transparently reverse.
  const auto path = temp_path("agcm_test_foreign.hist");
  const HistoryFile original = sample_history();
  write_history(path, original, /*foreign_endian=*/true);
  const HistoryFile loaded = read_history(path);
  EXPECT_EQ(loaded.nlon, original.nlon);
  EXPECT_EQ(loaded.step, original.step);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(loaded.fields[0].values, original.fields[0].values), 0.0);
  std::remove(path.c_str());
}

TEST(History, FindLocatesFieldsByName) {
  const HistoryFile h = sample_history();
  EXPECT_NE(h.find("theta"), nullptr);
  EXPECT_EQ(h.find("nope"), nullptr);
}

TEST(History, MissingFileThrows) {
  EXPECT_THROW(read_history(temp_path("agcm_does_not_exist.hist")), DataError);
}

TEST(History, GarbageMagicRejected) {
  const auto path = temp_path("agcm_test_garbage.hist");
  std::ofstream(path) << "definitely not a history file, much too short ok";
  EXPECT_THROW(read_history(path), DataError);
  std::remove(path.c_str());
}

TEST(History, TruncatedFileThrows) {
  const auto path = temp_path("agcm_test_trunc.hist");
  write_history(path, sample_history());
  // Chop the file at 60% of its size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 6 / 10);
  EXPECT_THROW(read_history(path), DataError);
  std::remove(path.c_str());
}

TEST(History, OversizedHeaderRejectedBeforeAllocating) {
  // A ~50-byte file whose plausible-looking header declares a 2^20 x 2^20
  // field (8 TiB of doubles): the reader must see the payload is not there
  // instead of trying to allocate it.
  const auto path = temp_path("agcm_test_oversized.hist");
  {
    std::ofstream out(path, std::ios::binary);
    const auto put = [&](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("AGCMHIST", 8);
    put(std::uint32_t{1});  // version
    put(host_endianness_marker());
    put(std::int32_t{1 << 20});  // nlon
    put(std::int32_t{1 << 20});  // nlat
    put(std::int32_t{1});        // nlev
    put(0.0);                    // time_sec
    put(std::int64_t{0});        // step
    put(std::uint32_t{1});       // nfields
    put(std::uint32_t{1});       // name length
    out.write("h", 1);
  }
  EXPECT_LT(std::filesystem::file_size(path), 64u);
  EXPECT_THROW(read_history(path), DataError);
  std::remove(path.c_str());
}

TEST(History, WrongFieldSizeRejectedOnWrite) {
  const auto path = temp_path("agcm_test_badsize.hist");
  HistoryFile h = sample_history();
  h.fields[0].values.pop_back();
  EXPECT_THROW(write_history(path, h), DataError);
  std::remove(path.c_str());
}

// --- config files -------------------------------------------------------------

TEST(Config, ParsesTypedValuesWithCommentsAndBlanks) {
  const auto cfg = Config::from_string(
      "# header comment\n"
      "nlon = 144\n"
      "\n"
      "dt_sec = 450.5   # trailing comment\n"
      "machine=t3d\n"
      "physics = true\n"
      "lb = off\n");
  EXPECT_EQ(cfg.get_int("nlon", 0), 144);
  EXPECT_DOUBLE_EQ(cfg.get_double("dt_sec", 0.0), 450.5);
  EXPECT_EQ(cfg.get_string("machine", ""), "t3d");
  EXPECT_TRUE(cfg.get_bool("physics", false));
  EXPECT_FALSE(cfg.get_bool("lb", true));
}

TEST(Config, FallbacksApplyForMissingKeys) {
  const auto cfg = Config::from_string("a = 1\n");
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
}

TEST(Config, RequiredKeysThrowWhenAbsent) {
  const auto cfg = Config::from_string("a = 1\n");
  EXPECT_EQ(cfg.require_int("a"), 1);
  EXPECT_THROW(cfg.require_int("b"), ConfigError);
  EXPECT_THROW(cfg.require_string("b"), ConfigError);
}

TEST(Config, MalformedInputRejected) {
  EXPECT_THROW(Config::from_string("not a key value line\n"), ConfigError);
  EXPECT_THROW(Config::from_string("= value\n"), ConfigError);
  const auto cfg = Config::from_string("n = twelve\nb = maybe\n");
  EXPECT_THROW(cfg.get_int("n", 0), ConfigError);
  EXPECT_THROW(cfg.get_bool("b", false), ConfigError);
}

TEST(Config, UnusedKeysAreReported) {
  const auto cfg = Config::from_string("used = 1\ntypo_key = 2\n");
  EXPECT_EQ(cfg.get_int("used", 0), 1);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo_key");
}

TEST(Config, MissingFileThrowsDataError) {
  EXPECT_THROW(Config::from_file("/nonexistent/agcm.cfg"), DataError);
}

TEST(Config, LastDuplicateWins) {
  const auto cfg = Config::from_string("k = 1\nk = 2\n");
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}

// --- parallel gather/scatter -------------------------------------------------

class GatherScatterSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GatherScatterSweep, StateSurvivesGatherWriteReadScatter) {
  const auto [rows, cols] = GetParam();
  const int nlon = 24, nlat = 12, nlev = 3;
  const auto path = temp_path("agcm_test_state_" + std::to_string(rows) +
                              "x" + std::to_string(cols) + ".hist");

  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(30'000);
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, rows, cols);
    const LatLonGrid grid(nlon, nlat, nlev);
    const Decomp2D decomp(nlon, nlat, rows, cols);
    const auto box = decomp.box(mesh.coord());

    dynamics::State state(box, nlev);
    dynamics::initialize_state(state, grid, box, 31415);
    state.time_sec = 1234.5;
    state.step = 42;

    // Gather to root, write (through the byte-swapped path for good
    // measure), read back, scatter into a fresh state.
    const HistoryFile history = gather_state(mesh, decomp, grid, state);
    if (world.rank() == 0) {
      EXPECT_EQ(history.fields.size(), 5u);
      write_history(path, history, /*foreign_endian=*/true);
    }
    world.barrier();
    HistoryFile loaded;
    if (world.rank() == 0) loaded = read_history(path);

    dynamics::State restored(box, nlev);
    scatter_state(mesh, decomp, grid, loaded, restored);
    EXPECT_DOUBLE_EQ(restored.time_sec, 1234.5);
    EXPECT_EQ(restored.step, 42);
    for (int k = 0; k < nlev; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i) {
          EXPECT_DOUBLE_EQ(restored.h(i, j, k), state.h(i, j, k));
          EXPECT_DOUBLE_EQ(restored.u(i, j, k), state.u(i, j, k));
          EXPECT_DOUBLE_EQ(restored.v(i, j, k), state.v(i, j, k));
          EXPECT_DOUBLE_EQ(restored.theta(i, j, k), state.theta(i, j, k));
          EXPECT_DOUBLE_EQ(restored.q(i, j, k), state.q(i, j, k));
        }
  });
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Meshes, GatherScatterSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{3, 2}, std::pair{2, 4}));

TEST(GatherScatter, DimensionMismatchRejected) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(10'000);
  EXPECT_THROW(
      machine.run(1,
                  [&](RankContext& ctx) {
                    Communicator world(ctx);
                    Mesh2D mesh(world, 1, 1);
                    const LatLonGrid grid(24, 12, 3);
                    const Decomp2D decomp(24, 12, 1, 1);
                    dynamics::State state(decomp.box(mesh.coord()), 3);
                    HistoryFile wrong = sample_history(6, 4, 2);
                    scatter_state(mesh, decomp, grid, wrong, state);
                  }),
      ConfigError);
}

}  // namespace
}  // namespace agcm::io
