// Tests for the observability layer: JSON model, tracer semantics,
// exporter well-formedness, metrics registry, and the two invariants the
// design promises — (1) a whole-program span's compute/overhead/wait split
// is bitwise equal to simnet's own TimeBreakdown, and (2) enabling tracing
// changes virtual-time results by exactly zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/mesh2d.hpp"
#include "core/model.hpp"
#include "filter/parallel.hpp"
#include "grid/decomp.hpp"
#include "simnet/machine.hpp"
#include "trace/export.hpp"
#include "trace/histogram.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace agcm::trace {
namespace {

/// RAII guard: enables tracing with fresh buffers, restores "off" after.
struct TraceGuard {
  explicit TraceGuard(int nranks) {
    set_enabled(true);
    Tracer::instance().begin_run(nranks);
    MetricsRegistry::instance().reset();
  }
  ~TraceGuard() { set_enabled(false); }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------- JSON ----

TEST(Json, DumpAndParseRoundTrip) {
  JsonValue root = JsonValue::object();
  root.set("name", "agcm");
  root.set("pi", 3.14159);
  root.set("n", 42);
  root.set("flag", true);
  root.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1.5);
  arr.push_back("two");
  root.set("arr", std::move(arr));

  const std::string text = root.dump();
  std::string error;
  const auto parsed = JsonValue::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("name")->as_string(), "agcm");
  EXPECT_DOUBLE_EQ(parsed->find("pi")->as_number(), 3.14159);
  EXPECT_DOUBLE_EQ(parsed->find("n")->as_number(), 42.0);
  EXPECT_TRUE(parsed->find("flag")->as_bool());
  EXPECT_TRUE(parsed->find("nothing")->is_null());
  ASSERT_EQ(parsed->find("arr")->size(), 2u);
  // Integral numbers print without a decimal point.
  EXPECT_NE(text.find("\"n\":42"), std::string::npos);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,2] garbage").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
  EXPECT_TRUE(JsonValue::parse("[1,2,3]").has_value());
}

TEST(Json, DumpIsDeterministic) {
  auto build = [] {
    JsonValue v = JsonValue::object();
    v.set("b", 2.0 / 3.0);
    v.set("a", 1e-7);
    return v.dump();
  };
  EXPECT_EQ(build(), build());
  // Insertion order is preserved (not sorted).
  EXPECT_LT(build().find("\"b\""), build().find("\"a\""));
}

TEST(Json, NumberReprRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e300, -2.5e-13, 4503599627370497.0}) {
    const std::string repr = JsonValue::number_repr(v);
    EXPECT_TRUE(same_bits(std::strtod(repr.c_str(), nullptr), v)) << repr;
  }
}

// -------------------------------------------------------------- tracer ----

TEST(Tracer, SpanNestingDepthsAndOrdering) {
  TraceGuard guard(1);
  simnet::Machine machine(simnet::MachineProfile::ideal());
  machine.run(1, [](simnet::RankContext& ctx) {
    AGCM_TRACE_SPAN("outer", ctx);
    ctx.clock().compute(10.0);
    {
      AGCM_TRACE_SPAN("inner", ctx);
      ctx.clock().compute(5.0);
    }
    ctx.clock().compute(1.0);
  });

  const auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 2u);
  // Rank-major, begin-order: outer first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  // Containment in virtual time.
  EXPECT_LE(spans[0].begin, spans[1].begin);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_DOUBLE_EQ(spans[0].duration(), 16.0);  // ideal: 1 flop = 1 s
  EXPECT_DOUBLE_EQ(spans[1].duration(), 5.0);

  // Raw events are in non-decreasing virtual time.
  const auto& events = Tracer::instance().events(0);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].t, events[i].t);
}

TEST(Tracer, DisabledRecordingCostsNothingAndStoresNothing) {
  set_enabled(false);
  Tracer::instance().begin_run(1);
  Tracer::instance().begin_span(0, "ghost", 1.0, {});
  Tracer::instance().end_span(0, 2.0, {});
  Tracer::instance().instant(0, "ghost", 1.0);
  Tracer::instance().counter(0, "ghost", 1.0, 42.0);
  EXPECT_EQ(Tracer::instance().total_events(), 0u);
}

TEST(Tracer, UnterminatedSpansAreDropped) {
  TraceGuard guard(1);
  Tracer::instance().begin_span(0, "open", 0.0, {});
  Tracer::instance().begin_span(0, "closed", 1.0, {});
  Tracer::instance().end_span(0, 2.0, {});
  const auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "closed");
}

TEST(Tracer, WholeProgramSpanSplitEqualsMachineBreakdown) {
  TraceGuard guard(2);
  simnet::Machine machine(simnet::MachineProfile::cray_t3d());
  const auto result = machine.run(2, [](simnet::RankContext& ctx) {
    AGCM_TRACE_SPAN("prog", ctx);
    ctx.clock().compute(1.0e6, 0.7);
    ctx.clock().memory_traffic(1.0e4);
  });

  const auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 2u);
  for (const SpanRecord& s : spans) {
    const simnet::TimeBreakdown& b =
        result.breakdowns[static_cast<std::size_t>(s.rank)];
    EXPECT_TRUE(same_bits(s.split.compute, b.compute));
    EXPECT_TRUE(same_bits(s.split.overhead, b.overhead));
    EXPECT_TRUE(same_bits(s.split.wait, b.wait));
    EXPECT_TRUE(same_bits(s.end, b.total()));
  }
}

TEST(Tracer, TransposeFiltersSplitIntoTransposeAndEngineSpans) {
  // fft-transpose, fft-load-balanced and convolution-partitioned run one
  // pipeline, so every apply() span holds the same children: two
  // "filter.transpose" spans around one engine span.
  const grid::LatLonGrid grid(24, 16, 2);
  const filter::FilterBank bank(grid, {{"a", filter::FilterKind::kStrong}});
  for (const auto& [algorithm, engine] :
       {std::pair{filter::FilterAlgorithm::kFftTranspose, "filter.fft-lines"},
        std::pair{filter::FilterAlgorithm::kFftBalanced, "filter.fft-lines"},
        std::pair{filter::FilterAlgorithm::kConvolutionPartitioned,
                  "filter.partition-lines"}}) {
    const std::string parent =
        "filter." + std::string(filter::algorithm_name(algorithm));
    TraceGuard guard(2);
    simnet::Machine machine(simnet::MachineProfile::cray_t3d());
    machine.run(2, [&](simnet::RankContext& ctx) {
      comm::Communicator world(ctx);
      comm::Mesh2D mesh(world, 1, 2);
      const grid::Decomp2D decomp(24, 16, 1, 2);
      const grid::LocalBox box = decomp.box(mesh.coord());
      grid::Array3D<double> field(box.ni, box.nj, 2);
      grid::Array3D<double>* ptr = &field;
      auto filt = filter::make_filter(algorithm, mesh, decomp, bank);
      filt->apply(std::span<grid::Array3D<double>* const>(&ptr, 1));
    });

    for (int rank = 0; rank < 2; ++rank) {
      std::vector<SpanRecord> outer;
      std::vector<SpanRecord> inner;
      for (const SpanRecord& s : Tracer::instance().spans()) {
        if (s.rank != rank) continue;
        if (s.name == parent) outer.push_back(s);
        if (s.name == "filter.transpose" || s.name == engine)
          inner.push_back(s);
      }
      ASSERT_EQ(outer.size(), 1u) << parent;
      ASSERT_EQ(inner.size(), 3u) << parent;
      EXPECT_EQ(inner[0].name, "filter.transpose");
      EXPECT_EQ(inner[1].name, engine);
      EXPECT_EQ(inner[2].name, "filter.transpose");
      for (const SpanRecord& s : inner) {
        EXPECT_EQ(s.depth, outer[0].depth + 1) << s.name;
        EXPECT_GE(s.begin, outer[0].begin);
        EXPECT_LE(s.end, outer[0].end);
      }
    }
  }
}

// ----------------------------------------------------------- exporters ----

TEST(Export, ChromeTraceIsWellFormedAndVirtualTimeScaled) {
  TraceGuard guard(2);
  Tracer::instance().begin_span(0, "phase", 0.25, {0.25, 0.0, 0.0});
  Tracer::instance().end_span(0, 1.25, {1.0, 0.25, 0.0});
  Tracer::instance().counter(1, "imbalance", 0.5, 0.37);
  Tracer::instance().instant(1, "marker", 0.75);

  const std::string text = chrome_trace_json(Tracer::instance());
  std::string error;
  const auto doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int complete = 0, counters = 0, instants = 0, metadata = 0;
  for (const JsonValue& e : events->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") {
      ++complete;
      // Virtual seconds -> trace microseconds.
      EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 0.25e6);
      EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 1.0e6);
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_DOUBLE_EQ(e.find("args")->find("compute_sec")->as_number(), 0.75);
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 1);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(metadata, 3);  // process name + one thread name per rank
}

TEST(Export, AggregatePhasesCountsIdleRanksAsImbalance) {
  TraceGuard guard(4);
  // Only rank 0 does this phase: with 4 ranks, (max-avg)/avg = 3.
  Tracer::instance().begin_span(0, "lonely", 0.0, {});
  Tracer::instance().end_span(0, 2.0, {2.0, 0.0, 0.0});

  const auto phases = aggregate_phases(Tracer::instance());
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "lonely");
  EXPECT_EQ(phases[0].calls, 1u);
  EXPECT_EQ(phases[0].ranks_touched, 1);
  EXPECT_DOUBLE_EQ(phases[0].total_sec, 2.0);
  EXPECT_DOUBLE_EQ(phases[0].max_rank_sec, 2.0);
  EXPECT_DOUBLE_EQ(phases[0].mean_rank_sec, 0.5);
  EXPECT_DOUBLE_EQ(phases[0].imbalance, 3.0);
}

TEST(Export, CsvHasOneLinePerSpan) {
  TraceGuard guard(1);
  Tracer::instance().begin_span(0, "a", 0.0, {});
  Tracer::instance().end_span(0, 1.0, {1.0, 0.0, 0.0});
  Tracer::instance().begin_span(0, "b", 1.0, {1.0, 0.0, 0.0});
  Tracer::instance().end_span(0, 3.0, {2.0, 1.0, 0.0});

  const std::string csv = trace_csv(Tracer::instance());
  int lines = 0;
  for (char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3);  // header + 2 spans
  EXPECT_EQ(csv.rfind("rank,name,depth,begin_s,end_s,duration_s,", 0), 0u);
}

// ------------------------------------------------------------- metrics ----

TEST(Metrics, PerRankCountersMergeAcrossRanks) {
  TraceGuard guard(3);
  auto& reg = MetricsRegistry::instance();
  reg.add("comm.messages", 0, 2.0);
  reg.add("comm.messages", 1, 3.0);
  reg.add("comm.messages", 1, 1.0);
  reg.add("comm.messages", 2, 4.0);

  EXPECT_DOUBLE_EQ(reg.total("comm.messages"), 10.0);
  const auto per_rank = reg.per_rank("comm.messages");
  ASSERT_EQ(per_rank.size(), 3u);
  EXPECT_EQ(per_rank[1].first, 1);
  EXPECT_DOUBLE_EQ(per_rank[1].second, 4.0);

  reg.set_gauge("lb.imbalance", 0, 0.35);
  reg.set_gauge("lb.imbalance", 0, 0.06);  // gauges overwrite
  EXPECT_DOUBLE_EQ(reg.per_rank("lb.imbalance")[0].second, 0.06);

  reg.observe("lat", 1.0);
  reg.observe("lat", 3.0);
  EXPECT_EQ(reg.distribution("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.distribution("lat").mean(), 2.0);

  // to_json reflects all three families and parses back.
  std::string error;
  const auto doc = JsonValue::parse(reg.to_json().dump(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(
      doc->find("counters")->find("comm.messages")->find("total")->as_number(),
      10.0);
}

TEST(Metrics, ConcurrentAddsSumExactly) {
  TraceGuard guard(8);
  auto& reg = MetricsRegistry::instance();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kAdds; ++i) reg.add("hot", t, 1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(reg.total("hot"), double(kThreads) * kAdds);
  for (const auto& [rank, value] : reg.per_rank("hot"))
    EXPECT_DOUBLE_EQ(value, double(kAdds));
}

TEST(Metrics, NoOpWhenDisabled) {
  MetricsRegistry::instance().reset();
  set_enabled(false);
  MetricsRegistry::instance().add("ghost", 0, 1.0);
  MetricsRegistry::instance().set_gauge("ghost", 0, 1.0);
  MetricsRegistry::instance().observe("ghost", 1.0);
  EXPECT_TRUE(MetricsRegistry::instance().names().empty());
}

TEST(Export, ChromeTraceEscapesHostileNamesExactly) {
  TraceGuard guard(1);
  // Names with quotes, backslashes, control characters and non-ASCII bytes
  // must survive a JSON round-trip byte-for-byte (regression test for the
  // exporter's string escaping).
  const std::string hostile = "phase \"x\\y\"\n\ttab\x01 end";
  Tracer::instance().begin_span(0, hostile, 0.0, {});
  Tracer::instance().end_span(0, 1.0, {1.0, 0.0, 0.0});
  Tracer::instance().instant(0, "marker \"quoted\"", 0.5);

  const std::string text = chrome_trace_json(Tracer::instance());
  std::string error;
  const auto doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  bool found_span = false, found_instant = false;
  for (const JsonValue& e : doc->find("traceEvents")->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") {
      EXPECT_EQ(e.find("name")->as_string(), hostile);
      found_span = true;
    } else if (ph == "i") {
      EXPECT_EQ(e.find("name")->as_string(), "marker \"quoted\"");
      found_instant = true;
    }
  }
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_instant);
}

TEST(Export, CsvDoublesEmbeddedQuotes) {
  TraceGuard guard(1);
  Tracer::instance().begin_span(0, "say[\"x\"]", 0.0, {});
  Tracer::instance().end_span(0, 1.0, {1.0, 0.0, 0.0});
  const std::string csv = trace_csv(Tracer::instance());
  // RFC 4180: embedded quotes are doubled inside a quoted field.
  EXPECT_NE(csv.find("\"say[\"\"x\"\"]\""), std::string::npos) << csv;
}

// ----------------------------------------------------------- histogram ----

/// The exact rule LogHistogram::percentile targets, applied to a sorted
/// copy of the samples.
double nearest_rank_oracle(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = LogHistogram::target_rank(sorted.size(), q);
  return sorted[static_cast<std::size_t>(rank)];
}

TEST(Histogram, PercentilesTrackSortedOracleWithinBinError) {
  // Worst-case relative error: the estimate and the true order statistic
  // share a bin whose bounds are a factor 2^(1/kSubBins) apart.
  const double tol = std::exp2(1.0 / LogHistogram::kSubBins) - 1.0;
  Rng rng(1996);
  LogHistogram hist;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    // Heavy dynamic range: ~6 orders of magnitude.
    const double v = std::exp(rng.uniform(-7.0, 7.0));
    samples.push_back(v);
    hist.add(v);
  }
  for (double q : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double est = hist.percentile(q);
    const double exact = nearest_rank_oracle(samples, q);
    EXPECT_NEAR(est / exact, 1.0, tol) << "q=" << q;
  }
  // Bounded memory: ~kSubBins bins per octave of observed range.
  const double octaves = std::log2(hist.max() / hist.min());
  EXPECT_LE(hist.bin_count(),
            static_cast<std::size_t>(octaves + 2) * LogHistogram::kSubBins);
}

TEST(Histogram, OrderIndependenceIsExact) {
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) values.push_back(rng.uniform(0.001, 1000.0));
  LogHistogram forward, backward;
  for (const double v : values) forward.add(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it)
    backward.add(*it);
  for (double q : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_TRUE(same_bits(forward.percentile(q), backward.percentile(q)));
  }
}

TEST(Histogram, NonPositiveBucketSortsFirstAndMergeWorks) {
  LogHistogram hist;
  for (int i = 0; i < 10; ++i) hist.add(0.0);
  for (int i = 0; i < 10; ++i) hist.add(100.0);
  // Rank 0..9 are the zeros: p25 targets rank round(19*0.25)=5 -> 0.
  EXPECT_DOUBLE_EQ(hist.percentile(25.0), 0.0);
  EXPECT_GT(hist.percentile(75.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);

  LogHistogram other;
  other.add(-5.0);
  other.merge(hist);
  EXPECT_EQ(other.count(), 21u);
  EXPECT_DOUBLE_EQ(other.min(), -5.0);
  EXPECT_DOUBLE_EQ(other.percentile(0.0), -2.5);  // nonpos-bucket midpoint
  // Empty edge case.
  LogHistogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
  EXPECT_EQ(empty.bin_count(), 0u);
}

// ------------------------------------------------- chrome trace writer ----

TEST(ChromeTraceWriter, AppendedRunsEmitEquivalentSpans) {
  TraceGuard guard(2);
  const std::string path = "test_chrome_trace_writer.json";
  ChromeTraceWriter writer(path, 2);

  // Two "runs" appended separately, with an unterminated span that must be
  // dropped (same rule as Tracer::spans()) and a hostile name that must be
  // escaped.
  Tracer::instance().begin_span(0, "alpha \"q\"", 0.0, {});
  Tracer::instance().end_span(0, 1.0, {1.0, 0.0, 0.0});
  Tracer::instance().counter(1, "bytes", 0.5, 42.0);
  Tracer::instance().begin_span(1, "open-forever", 0.25, {});
  writer.append(Tracer::instance());
  EXPECT_EQ(Tracer::instance().total_events(), 3u);  // left as it was

  Tracer::instance().begin_run(2);
  Tracer::instance().begin_span(1, "beta", 2.0, {1.0, 0.5, 0.0});
  Tracer::instance().end_span(1, 3.0, {1.5, 1.0, 0.0});
  Tracer::instance().instant(0, "tick", 2.5);
  writer.append(Tracer::instance());
  writer.close();
  writer.close();  // idempotent

  const std::string text = read_text_file(path);
  std::string error;
  const auto doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  int spans = 0, counters = 0, instants = 0, metadata = 0;
  bool saw_alpha = false, saw_beta = false;
  for (const JsonValue& e : doc->find("traceEvents")->items()) {
    const std::string& ph = e.find("ph")->as_string();
    const std::string& name = e.find("name")->as_string();
    EXPECT_NE(name, "open-forever");  // unterminated: dropped
    if (ph == "X") {
      ++spans;
      if (name == "alpha \"q\"") {
        saw_alpha = true;
        EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 1.0e6);
      }
      if (name == "beta") {
        saw_beta = true;
        EXPECT_DOUBLE_EQ(e.find("args")->find("overhead_sec")->as_number(),
                         0.5);
      }
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(metadata, 3);
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_beta);
  std::remove(path.c_str());
}

TEST(ChromeTraceWriter, CloseWithoutAppendYieldsValidEmptyTrace) {
  const std::string path = "test_chrome_trace_writer_empty.json";
  {
    ChromeTraceWriter writer(path, 1);
    // Destructor must close and leave a syntactically complete document.
  }
  std::string error;
  const auto doc = JsonValue::parse(read_text_file(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events->is_array());
  for (const JsonValue& e : events->items())
    EXPECT_EQ(e.find("ph")->as_string(), "M");
  std::remove(path.c_str());
}

TEST(ChromeTraceWriter, StringFormMatchesFileBytesInRecordingOrder) {
  TraceGuard guard(2);
  Tracer::instance().begin_span(0, "outer", 0.0, {});
  Tracer::instance().counter(0, "inside", 0.5, 7.0);
  Tracer::instance().begin_span(0, "inner", 0.5, {0.5, 0.0, 0.0});
  Tracer::instance().end_span(0, 0.75, {0.75, 0.0, 0.0});
  Tracer::instance().end_span(0, 1.0, {1.0, 0.0, 0.0});
  Tracer::instance().instant(1, "tick", 0.25);

  const std::string path = "test_chrome_trace_oneshot.json";
  write_chrome_trace(Tracer::instance(), path);
  const std::string text = chrome_trace_json(Tracer::instance());
  EXPECT_EQ(read_text_file(path), text);
  std::remove(path.c_str());

  // A span sits at its begin: rank 0 reads outer, inside, inner.
  const auto outer = text.find("\"outer\"");
  const auto inside = text.find("\"inside\"");
  const auto inner = text.find("\"inner\"");
  ASSERT_NE(inner, std::string::npos);
  EXPECT_LT(outer, inside);
  EXPECT_LT(inside, inner);
}

TEST(ChromeTraceWriter, ThrowsOnFullDevice) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " is absent";
  TraceGuard guard(1);
  for (int i = 0; i < 20'000; ++i) {
    Tracer::instance().begin_span(0, "filler", i, {});
    Tracer::instance().end_span(0, i + 1.0, {1.0, 0.0, 0.0});
  }
  // More than one 1 MiB write chunk.
  ASSERT_GT(chrome_trace_json(Tracer::instance()).size(), std::size_t{1} << 20);

  try {
    ChromeTraceWriter writer(full, 1);
    writer.append(Tracer::instance());
    writer.close();
    ADD_FAILURE() << "a short write went unreported";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find(full), std::string::npos) << e.what();
  }
  EXPECT_THROW(write_chrome_trace(Tracer::instance(), full), DataError);
  // A trace small enough to sit in the stdio buffer fails at close.
  EXPECT_THROW(ChromeTraceWriter(full, 1).close(), DataError);
}

// ----------------------------------------- metrics edge cases ------------

TEST(Metrics, EmptyRegistrySerialisesToEmptyObjects) {
  TraceGuard guard(1);
  const std::string text = MetricsRegistry::instance().to_json().dump();
  std::string error;
  const auto doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("counters")->size(), 0u);
  EXPECT_EQ(doc->find("gauges")->size(), 0u);
  EXPECT_EQ(doc->find("distributions")->size(), 0u);
  EXPECT_DOUBLE_EQ(MetricsRegistry::instance().percentile("absent", 50.0),
                   0.0);
  EXPECT_EQ(MetricsRegistry::instance().histogram("absent").count(), 0u);
}

TEST(Metrics, ResetBetweenPhasesIsolatesRecordings) {
  TraceGuard guard(2);
  auto& reg = MetricsRegistry::instance();
  reg.add("phase.a", 0, 5.0);
  reg.observe("lat", 1.0);
  EXPECT_DOUBLE_EQ(reg.total("phase.a"), 5.0);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.total("phase.a"), 0.0);
  EXPECT_EQ(reg.distribution("lat").count(), 0u);
  reg.add("phase.b", 1, 2.0);
  EXPECT_EQ(reg.names(), std::vector<std::string>{"phase.b"});
}

TEST(Metrics, TrafficExportWritesOnlyKeysOfRanksThatMovedMessages) {
  TraceGuard guard(2);
  simnet::Machine machine(simnet::MachineProfile::ideal());

  // One rank: every collective is local, so the export writes no comm key.
  record_traffic(machine.run(1, [](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    world.barrier();
    (void)world.allreduce_sum(1.0);
  }));
  for (const std::string& name : MetricsRegistry::instance().names())
    EXPECT_NE(name.rfind("comm.", 0), 0u) << name;

  // Two ranks, one message 0 -> 1: rank 0 gets only the sent pair, rank 1
  // only the received pair; a second export adds to the first.
  const auto one_way = [](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    if (world.rank() == 0) world.send_value<double>(1, 7, 2.5);
    else (void)world.recv_value<double>(0, 7);
  };
  record_traffic(machine.run(2, one_way));
  record_traffic(machine.run(2, one_way));
  using PerRank = std::vector<std::pair<int, double>>;
  auto& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.per_rank("comm.messages_sent"), (PerRank{{0, 2.0}}));
  EXPECT_EQ(reg.per_rank("comm.bytes_sent"), (PerRank{{0, 16.0}}));
  EXPECT_EQ(reg.per_rank("comm.messages_recv"), (PerRank{{1, 2.0}}));
  EXPECT_EQ(reg.per_rank("comm.bytes_recv"), (PerRank{{1, 16.0}}));
}

TEST(Metrics, DistributionPercentilesMatchOracleAndAppearInJson) {
  TraceGuard guard(1);
  auto& reg = MetricsRegistry::instance();
  std::vector<double> samples;
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(0.5, 50.0);
    samples.push_back(v);
    reg.observe("cost", v);
  }
  const double tol = std::exp2(1.0 / LogHistogram::kSubBins) - 1.0;
  for (double q : {50.0, 95.0, 99.0}) {
    EXPECT_NEAR(reg.percentile("cost", q) / nearest_rank_oracle(samples, q),
                1.0, tol)
        << "q=" << q;
  }
  const auto doc = JsonValue::parse(reg.to_json().dump());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* dist = doc->find("distributions")->find("cost");
  ASSERT_NE(dist, nullptr);
  for (const char* key : {"count", "mean", "stddev", "min", "max", "p50",
                          "p95", "p99"}) {
    EXPECT_NE(dist->find(key), nullptr) << key;
  }
  EXPECT_DOUBLE_EQ(dist->find("p50")->as_number(),
                   reg.percentile("cost", 50.0));
}

TEST(Metrics, ConcurrentObserveIsLosslessAndOrderIndependent) {
  TraceGuard guard(8);
  auto& reg = MetricsRegistry::instance();
  constexpr int kThreads = 8;
  constexpr int kObs = 2'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kObs; ++i)
        reg.observe("conc", rng.uniform(0.01, 10.0));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.distribution("conc").count(),
            static_cast<std::uint64_t>(kThreads) * kObs);
  // The histogram is pure counts, so the percentile is a deterministic
  // function of the sample *multiset*: recompute serially and compare bits.
  LogHistogram serial;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(static_cast<std::uint64_t>(t) + 1);
    for (int i = 0; i < kObs; ++i) serial.add(rng.uniform(0.01, 10.0));
  }
  for (double q : {50.0, 95.0, 99.0}) {
    EXPECT_TRUE(same_bits(reg.percentile("conc", q), serial.percentile(q)));
  }
}

// --------------------------------------------- end-to-end model runs ------

core::ModelConfig tiny_model() {
  core::ModelConfig cfg;
  cfg.nlon = 24;
  cfg.nlat = 16;
  cfg.nlev = 3;
  cfg.mesh_rows = 2;
  cfg.mesh_cols = 2;
  cfg.physics_load_balance = true;  // exercise the lb counters too
  return cfg;
}

TEST(TraceModel, TracingChangesVirtualResultsByExactlyZero) {
  set_enabled(false);
  const auto plain = core::run_model(tiny_model(), 2, 1);

  {
    TraceGuard guard(4);
    const auto traced = core::run_model(tiny_model(), 2, 1);
    ASSERT_EQ(plain.rank_breakdowns.size(), traced.rank_breakdowns.size());
    for (std::size_t r = 0; r < plain.rank_breakdowns.size(); ++r) {
      EXPECT_TRUE(same_bits(plain.rank_breakdowns[r].compute,
                            traced.rank_breakdowns[r].compute));
      EXPECT_TRUE(same_bits(plain.rank_breakdowns[r].overhead,
                            traced.rank_breakdowns[r].overhead));
      EXPECT_TRUE(same_bits(plain.rank_breakdowns[r].wait,
                            traced.rank_breakdowns[r].wait));
    }
    EXPECT_TRUE(same_bits(plain.per_step.total(), traced.per_step.total()));
    EXPECT_TRUE(same_bits(plain.per_step.physics_balance,
                          traced.per_step.physics_balance));
    EXPECT_TRUE(same_bits(plain.percentiles.halo.p99,
                          traced.percentiles.halo.p99));
    EXPECT_TRUE(same_bits(plain.physics_imbalance_after,
                          traced.physics_imbalance_after));
    EXPECT_TRUE(same_bits(plain.mass_drift_rel, traced.mass_drift_rel));
    EXPECT_EQ(plain.total_messages, traced.total_messages);
    EXPECT_EQ(plain.total_bytes, traced.total_bytes);

    // The traced run published the simnet host gauges, and they stay out of
    // the serialised metrics that byte-compared artefacts embed.
    const auto host = MetricsRegistry::instance().host_gauges();
    ASSERT_EQ(host.size(), 5u);
    // Every ledger message went through exactly one of the two transports.
    EXPECT_EQ(host.at("simnet.mailbox.deliveries") +
                  host.at("simnet.rendezvous.blocks"),
              static_cast<double>(traced.total_messages));
    EXPECT_GT(host.at("simnet.rendezvous.blocks"), 0.0);
    EXPECT_GT(host.at("simnet.mailbox.live_channels"), 0.0);
    const std::string json = MetricsRegistry::instance().to_json().dump();
    EXPECT_EQ(json.find("simnet."), std::string::npos);
    for (const std::string& name : MetricsRegistry::instance().names())
      EXPECT_NE(name.rfind("simnet.", 0), 0u) << name;
  }
}

TEST(TraceModel, ModelRankSpansMatchReportBreakdownsBitwise) {
  TraceGuard guard(4);
  const auto report = core::run_model(tiny_model(), 2, 1);
  const auto spans = Tracer::instance().spans();

  int found = 0;
  for (const SpanRecord& s : spans) {
    if (s.name != "model.rank") continue;
    ++found;
    const auto& b = report.rank_breakdowns[static_cast<std::size_t>(s.rank)];
    EXPECT_TRUE(same_bits(s.split.compute, b.compute));
    EXPECT_TRUE(same_bits(s.split.overhead, b.overhead));
    EXPECT_TRUE(same_bits(s.split.wait, b.wait));
  }
  EXPECT_EQ(found, 4);

  // The instrumented phases all appear, and comm counters were recorded.
  const auto phases = aggregate_phases(Tracer::instance());
  auto has = [&](const char* name) {
    for (const auto& p : phases)
      if (p.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has("model.rank"));
  EXPECT_TRUE(has("model.step"));
  EXPECT_TRUE(has("dynamics.filter"));
  EXPECT_TRUE(has("dynamics.fd"));
  EXPECT_TRUE(has("physics.columns"));
  EXPECT_TRUE(has("physics.balance"));
  EXPECT_TRUE(has("comm.barrier"));
  // The comm counters are the run's ledgers, exported once: their totals
  // are the report's.
  EXPECT_EQ(MetricsRegistry::instance().total("comm.messages_sent"),
            static_cast<double>(report.total_messages));
  EXPECT_EQ(MetricsRegistry::instance().total("comm.bytes_sent"),
            static_cast<double>(report.total_bytes));
  EXPECT_EQ(MetricsRegistry::instance().total("comm.messages_recv"),
            static_cast<double>(report.total_messages));
  EXPECT_EQ(MetricsRegistry::instance().total("comm.bytes_recv"),
            static_cast<double>(report.total_bytes));
  // The balancer ran and published its per-iteration imbalance gauge (the
  // tiny uniform model may legitimately move zero items).
  EXPECT_FALSE(MetricsRegistry::instance().per_rank("lb.imbalance").empty());

  // The whole trace exports to well-formed Chrome JSON.
  std::string error;
  EXPECT_TRUE(
      JsonValue::parse(chrome_trace_json(Tracer::instance()), &error)
          .has_value())
      << error;
}

}  // namespace
}  // namespace agcm::trace
