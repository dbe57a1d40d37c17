// Trace exporters: Chrome trace JSON, flat CSV, and the aggregate
// per-phase table.
//
// Three views of the same per-rank virtual-time events (trace/tracer.hpp):
//  * ChromeTraceWriter — the Chrome Trace Event Format, loadable in
//    chrome://tracing and https://ui.perfetto.dev, streamed to a file in
//    bounded memory. Virtual seconds map to trace microseconds; one trace
//    "thread" per rank; span args carry the compute/overhead/wait split so
//    the paper's Fig. 1 breakdown can be read straight off a span.
//    write_chrome_trace / chrome_trace_json are one-shot forms of it.
//  * trace_csv — one line per completed span for spreadsheet/pandas use.
//  * aggregate_phases / phase_table — the paper's table form: per phase
//    name, call counts, per-rank virtual-time totals (mean/max), the
//    compute/overhead/wait split, and the paper's load-imbalance metric
//    (max-avg)/avg over per-rank totals. Built on util/table + util/stats.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "trace/json.hpp"
#include "trace/tracer.hpp"
#include "util/table.hpp"

namespace agcm::trace {

/// Cross-rank aggregate of all spans sharing one phase name.
struct PhaseStats {
  std::string name;
  std::uint64_t calls = 0;       ///< completed spans across all ranks
  int ranks_touched = 0;         ///< ranks with at least one such span
  double total_sec = 0.0;        ///< sum of span durations over all ranks
  double mean_rank_sec = 0.0;    ///< mean over ranks of per-rank totals
  double max_rank_sec = 0.0;     ///< max  over ranks of per-rank totals
  TimeSplit split;               ///< summed breakdown deltas
  double imbalance = 0.0;        ///< (max-avg)/avg of per-rank totals
};

/// Aggregates every completed span by phase name. Ranks that never entered
/// a phase contribute zero-load entries to that phase's imbalance (the
/// paper's convention: an idle rank is the imbalance). The rank universe is
/// Tracer::nranks() from the last begin_run. Nested spans aggregate under
/// their own names; hierarchical names ("dynamics.filter" inside
/// "model.step") keep the containment readable.
std::vector<PhaseStats> aggregate_phases(const Tracer& tracer);

/// Renders the aggregate as a util/table (sorted by total time,
/// descending).
Table phase_table(const std::vector<PhaseStats>& phases,
                  const std::string& title = "Per-phase virtual time");

/// JSON form of the aggregate (array of phase objects).
JsonValue phases_json(const std::vector<PhaseStats>& phases);

/// Streams a Chrome Trace Event Format document (a JSON object with
/// "traceEvents") to a file. Spans become complete ("X") events, counters
/// "C" events, instants "i" events, each rank's in recording order; rank r
/// is trace thread r of process 0. Output is buffered and written in 1 MiB
/// chunks, so a sweep that appends after every cell and lets the next
/// Tracer::begin_run clear the buffers holds one cell's events at a time:
///
///   ChromeTraceWriter writer("TRACE_sweep.json", nranks);
///   for (cell : sweep) {
///     Tracer::instance().begin_run(nranks);
///     machine.run(...);                    // ranks record as usual
///     writer.append(Tracer::instance());
///   }
///   writer.close();                        // footer; valid JSON from here
///
/// Every failed write, and a failed close, throws DataError naming the
/// path. Like the Tracer's read accessors, append runs on the launcher
/// thread between runs.
class ChromeTraceWriter {
 public:
  /// Opens `path` and writes the header plus process/thread metadata for
  /// max(nranks, 1) ranks.
  ChromeTraceWriter(std::string path, int nranks);
  /// Runs close(); an error it raises is lost, so call close() to see it.
  ~ChromeTraceWriter();

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Appends every rank's events. Open spans are skipped; the tracer is
  /// left as it was.
  void append(const Tracer& tracer);

  /// Writes the footer and closes the file. Idempotent.
  void close();

 private:
  void flush();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::size_t events_ = 0;  ///< elements of "traceEvents" so far
};

/// The document ChromeTraceWriter writes for `tracer` alone, byte for byte.
std::string chrome_trace_json(const Tracer& tracer);
void write_chrome_trace(const Tracer& tracer, const std::string& path);

/// Flat CSV: rank,name,depth,begin_s,end_s,duration_s,compute_s,
/// overhead_s,wait_s — one line per completed span.
std::string trace_csv(const Tracer& tracer);
void write_trace_csv(const Tracer& tracer, const std::string& path);

}  // namespace agcm::trace
