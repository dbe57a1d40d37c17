// Per-rank event tracing keyed to *virtual* time.
//
// The virtual multicomputer already measures everything the paper's
// analysis needs — each rank's VirtualClock carries a deterministic `now()`
// and a compute/overhead/wait TimeBreakdown — but until this layer existed
// there was no way to see *where* that time went. The Tracer records scoped
// phase spans ("dynamics.filter", "filter.fft-load-balanced", ...), instant
// markers and counter samples, each stamped with the recording rank's
// virtual clock and its breakdown snapshot, so a span's cost can be split
// into compute / message overhead / blocked-wait exactly the way the
// paper's component tables are.
//
// Design rules:
//  * The tracer NEVER advances a virtual clock. It only reads `now()` and
//    the breakdown, so enabling tracing changes virtual-time results by
//    exactly 0 (tested).
//  * Tracing is off by default; every recording call starts with one
//    relaxed atomic load, so instrumented hot paths cost nothing measurable
//    when tracing is disabled.
//  * Each rank (= host thread) writes only its own pre-allocated event
//    buffer, so recording needs no locks and host scheduling cannot
//    reorder a rank's events.
//
//  * A span is one Event: begin_span reserves its slot, end_span (the only
//    place begin and end are paired) fills in the end time and breakdown
//    delta. A span whose end never came stays flagged `open` and every
//    reader drops it.
//
// Exporters (Chrome trace JSON, CSV, aggregate phase table) live in
// trace/export.hpp; process-wide named counters in trace/metrics.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/machine.hpp"
#include "simnet/virtual_clock.hpp"

namespace agcm::trace {

/// Global observability switch (tracer + metrics registry). Off by default.
bool enabled();
void set_enabled(bool on);

/// Compute / overhead / wait split, mirroring simnet::TimeBreakdown without
/// depending on the clock internals at event-storage level.
struct TimeSplit {
  double compute = 0.0;
  double overhead = 0.0;
  double wait = 0.0;

  double total() const { return compute + overhead + wait; }

  TimeSplit operator-(const TimeSplit& rhs) const {
    return {compute - rhs.compute, overhead - rhs.overhead, wait - rhs.wait};
  }
};

inline TimeSplit to_split(const simnet::TimeBreakdown& b) {
  return {b.compute, b.overhead, b.wait};
}

enum class EventKind : std::uint8_t {
  kSpan,
  kInstant,
  kCounter,
};

/// One recorded event. A span is one record: begin_span reserves it (so a
/// rank's events stay in begin order) and end_span completes it in place.
struct Event {
  std::string name;
  double t = 0.0;        ///< virtual seconds on the recording rank's clock
                         ///< (a span's begin)
  double end = 0.0;      ///< span end (kSpan only)
  TimeSplit split;       ///< kSpan: breakdown delta across the span (the
                         ///< begin snapshot while still open)
  double value = 0.0;    ///< sample value (kCounter only)
  EventKind kind = EventKind::kInstant;
  bool open = false;     ///< kSpan awaiting end_span; every reader skips it
  std::int32_t depth = 0;  ///< span nesting depth at the event
};

/// A completed span with its rank, produced by Tracer::spans().
struct SpanRecord {
  std::string name;
  int rank = 0;
  int depth = 0;         ///< 0 = top-level
  double begin = 0.0;    ///< virtual seconds
  double end = 0.0;
  TimeSplit split;       ///< breakdown delta across the span

  double duration() const { return end - begin; }
};

/// Process-wide per-rank event recorder. Thread model: `begin_run` and the
/// read accessors are called from the launcher thread between SPMD runs;
/// the record calls are called from rank threads, each touching only its
/// own rank slot.
class Tracer {
 public:
  static Tracer& instance();

  /// Maximum rank id the tracer can record for (slots are pre-allocated so
  /// rank threads never race on buffer growth).
  static constexpr int kMaxRanks = 4096;

  /// Clears all buffers and records the rank count of the upcoming run
  /// (used to attribute zero-load ranks in the aggregations). Must not be
  /// called while rank threads are recording.
  void begin_run(int nranks);

  int nranks() const { return nranks_; }

  // --- recording (no-ops while tracing is disabled) ------------------------

  void begin_span(int rank, std::string_view name, double t,
                  const TimeSplit& at);
  void end_span(int rank, double t, const TimeSplit& at);
  void instant(int rank, std::string_view name, double t);
  void counter(int rank, std::string_view name, double t, double value);

  // --- read access (between runs / after a run) ----------------------------

  /// Events recorded by `rank`, in recording order (= virtual-time order,
  /// because each rank's clock is monotone; a span sits at its begin).
  /// Spans still flagged `open` are part of the buffer: readers skip them.
  const std::vector<Event>& events(int rank) const;

  /// All completed spans across ranks, rank-major then begin-order.
  /// Unterminated spans (begin without end) are dropped.
  std::vector<SpanRecord> spans() const;

  std::size_t total_events() const;

 private:
  Tracer();

  struct RankBuffer {
    std::vector<Event> events;
    std::vector<std::size_t> open;  ///< indices of the open spans
  };

  RankBuffer* buffer(int rank);
  const RankBuffer* buffer(int rank) const;

  std::vector<std::unique_ptr<RankBuffer>> ranks_;
  int nranks_ = 0;
};

/// RAII span bound to a rank's virtual clock: records begin at
/// construction and end at destruction, with breakdown snapshots. When
/// tracing is disabled at construction the object does nothing at all.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, const simnet::VirtualClock& clock,
             int rank)
      : clock_(&clock), rank_(rank), active_(enabled()) {
    if (active_) {
      Tracer::instance().begin_span(rank_, name, clock.now(),
                                    to_split(clock.breakdown()));
    }
  }
  /// Convenience constructor for code holding a RankContext.
  ScopedSpan(std::string_view name, simnet::RankContext& ctx)
      : ScopedSpan(name, ctx.clock(), ctx.rank()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (active_) {
      Tracer::instance().end_span(rank_, clock_->now(),
                                  to_split(clock_->breakdown()));
    }
  }

 private:
  const simnet::VirtualClock* clock_;
  int rank_;
  bool active_;
};

}  // namespace agcm::trace

#define AGCM_TRACE_CONCAT_INNER(a, b) a##b
#define AGCM_TRACE_CONCAT(a, b) AGCM_TRACE_CONCAT_INNER(a, b)

/// Scoped phase span over a RankContext: AGCM_TRACE_SPAN("dynamics.fd", ctx).
#define AGCM_TRACE_SPAN(name, ctx)                                   \
  ::agcm::trace::ScopedSpan AGCM_TRACE_CONCAT(agcm_trace_span_,      \
                                              __COUNTER__)(name, ctx)

/// Scoped phase span when only a clock + rank are at hand.
#define AGCM_TRACE_SPAN_CLOCK(name, clock, rank)                     \
  ::agcm::trace::ScopedSpan AGCM_TRACE_CONCAT(agcm_trace_span_,      \
                                              __COUNTER__)(name, clock, rank)
