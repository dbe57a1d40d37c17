// Unit tests for the util library: errors, formatting, RNG, statistics,
// tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace agcm {
namespace {

TEST(Error, CheckConfigThrowsWithContext) {
  EXPECT_NO_THROW(check_config(true, "fine"));
  try {
    check_config(false, "bad knob");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad knob"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw DataError("x"), Error);
  EXPECT_THROW(throw CommError("x"), Error);
  EXPECT_THROW(throw ConfigError("x"), Error);
}

TEST(Format, ReplacesPlaceholdersInOrder) {
  EXPECT_EQ(strformat("a={} b={}", 1, "two"), "a=1 b=two");
}

TEST(Format, ExtraPlaceholdersEmittedVerbatim) {
  EXPECT_EQ(strformat("x={} y={}", 7), "x=7 y={}");
}

TEST(Format, NoPlaceholders) { EXPECT_EQ(strformat("plain"), "plain"); }

TEST(Format, FixedPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-0.5, 0), "-0");  // printf semantics
  EXPECT_EQ(fixed(100.0, 1), "100.0");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRangeAndCoversAll) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, StreamsAreIndependentAndReproducible) {
  Rng a = Rng::for_stream(42, 1);
  Rng a2 = Rng::for_stream(42, 1);
  Rng b = Rng::for_stream(42, 2);
  EXPECT_EQ(a(), a2());
  EXPECT_NE(a(), b());  // extremely unlikely to collide
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Stats, LoadImbalanceMatchesPaperDefinition) {
  // Figure 5A: loads 65, 24, 38, 15 -> avg 35.5, (65-35.5)/35.5 = 0.8310...
  const double loads[] = {65, 24, 38, 15};
  EXPECT_NEAR(load_imbalance(loads), (65.0 - 35.5) / 35.5, 1e-12);
}

TEST(Stats, LoadImbalanceUniformIsZero) {
  const double loads[] = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(load_imbalance(loads), 0.0);
}

TEST(Stats, LoadImbalanceEmptyAndZero) {
  EXPECT_DOUBLE_EQ(load_imbalance({}), 0.0);
  const double zeros[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(load_imbalance(zeros), 0.0);
}

TEST(Stats, EfficiencyIsInverseOfImbalance) {
  const double loads[] = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(load_efficiency(loads), 0.75);
}

TEST(Stats, Percentile) {
  const double v[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, MaxAbsDiffAndRelL2) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {1.0, 2.5, 3.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_NEAR(rel_l2_error(a, b), 0.5 / std::sqrt(1 + 6.25 + 9), 1e-12);
  EXPECT_DOUBLE_EQ(rel_l2_error(a, a), 0.0);
}

TEST(Table, RendersAlignedGrid) {
  Table t("Demo", {"col", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
  EXPECT_NE(s.find("|      x |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t("T", {"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.render().find("| 1 |"), std::string::npos);
}

TEST(Table, HelperFormatters) {
  EXPECT_EQ(Table::num(1.234, 2), "1.23");
  EXPECT_EQ(Table::paper_vs(10.0, 9.5, 1), "10.0 / 9.5");
  EXPECT_EQ(Table::pct(0.37), "37%");
}

// --- The large-block recycler (util/aligned.hpp). The allocator is called
// directly, so no test touches more than the header page of its blocks.

using Doubles64 = util::AlignedAllocator<double, 64>;
constexpr std::size_t kLarge = util::detail::kRecycleMinBytes / sizeof(double);

/// False in AddressSanitizer builds, which free large blocks at once.
bool recycling() {
  Doubles64 a;
  a.deallocate(a.allocate(kLarge), kLarge);
  const bool on = util::large_block_stats().cached_blocks > 0;
  util::release_cached_large_blocks();
  return on;
}

TEST(LargeBlocks, ReturnedBlockServesTheNextRequestOfItsShape) {
  if (!recycling()) GTEST_SKIP() << "recycling is off in ASan builds";
  Doubles64 a;
  double* first = a.allocate(kLarge + 3);
  const auto before = util::large_block_stats();
  a.deallocate(first, kLarge + 3);
  EXPECT_EQ(util::large_block_stats().cached_blocks, 1u);
  double* second = a.allocate(kLarge + 3);
  const auto after = util::large_block_stats();
  EXPECT_EQ(second, first);
  EXPECT_EQ(after.reuses, before.reuses + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.cached_blocks, 0u);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  a.deallocate(second, kLarge + 3);
  util::release_cached_large_blocks();
}

TEST(LargeBlocks, SmallBlocksBypassTheCache) {
  const auto before = util::large_block_stats();
  Doubles64 a;
  double* p = a.allocate(kLarge - 1);
  a.deallocate(p, kLarge - 1);
  const auto after = util::large_block_stats();
  EXPECT_EQ(after.reuses, before.reuses);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.cached_blocks, before.cached_blocks);
}

TEST(LargeBlocks, OtherSizesAndAlignmentsMiss) {
  if (!recycling()) GTEST_SKIP() << "recycling is off in ASan builds";
  Doubles64 a;
  util::AlignedAllocator<double, 128> wide;
  a.deallocate(a.allocate(kLarge), kLarge);
  const auto before = util::large_block_stats();
  double* bigger = a.allocate(kLarge + 1);
  double* aligned = wide.allocate(kLarge);
  const auto after = util::large_block_stats();
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.reuses, before.reuses);
  EXPECT_EQ(after.cached_blocks, 1u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 128, 0u);
  a.deallocate(bigger, kLarge + 1);
  wide.deallocate(aligned, kLarge);
  util::release_cached_large_blocks();
}

TEST(LargeBlocks, CacheHoldsAtMostThePeakLiveAndEvictsTheOldest) {
  if (!recycling()) GTEST_SKIP() << "recycling is off in ASan builds";
  // Blocks far larger than any other test's, so that this test sets the
  // process's live high-water mark: three blocks of n.
  const std::size_t n = std::size_t{1} << 21;
  Doubles64 a;
  double* held[3] = {};
  for (double*& p : held) p = a.allocate(n);
  const std::size_t peak = util::large_block_stats().peak_live_bytes;
  ASSERT_EQ(peak, 3 * n * sizeof(double));
  for (double* p : held) a.deallocate(p, n);
  EXPECT_EQ(util::large_block_stats().cached_bytes, peak);

  // One block of another size, alone live: returning it pushes the cache
  // over the peak, so the oldest returned blocks go until it fits again
  // (held[0], then held[1]).
  double* other = a.allocate(n + 8);
  a.deallocate(other, n + 8);
  auto stats = util::large_block_stats();
  EXPECT_EQ(stats.peak_live_bytes, peak);
  EXPECT_EQ(stats.cached_blocks, 2u);
  EXPECT_EQ(stats.cached_bytes, (n + n + 8) * sizeof(double));
  EXPECT_LE(stats.cached_bytes, stats.peak_live_bytes);
  // The survivors are the newest: the other-sized block and held[2].
  EXPECT_EQ(a.allocate(n + 8), other);
  double* newest = a.allocate(n);
  EXPECT_EQ(newest, held[2]);
  a.deallocate(other, n + 8);
  a.deallocate(newest, n);
  util::release_cached_large_blocks();
  EXPECT_EQ(util::large_block_stats().cached_bytes, 0u);
}

}  // namespace
}  // namespace agcm
