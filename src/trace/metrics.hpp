// Process-wide metrics registry: named per-rank counters, per-rank gauges
// and merged distributions.
//
// The registry complements the Tracer (trace/tracer.hpp): spans answer
// "where did the virtual time go", counters answer "how much traffic /
// work flowed through a subsystem" — messages and bytes per rank from the
// run's traffic ledgers (record_traffic), migrated items from
// `loadbalance`. Counters are keyed by (metric name, rank) so cross-rank
// merges (totals, per-rank tables, the paper's load_imbalance metric) fall
// out of one snapshot.
//
// Thread model: rank threads record concurrently; every mutation takes one
// process-wide mutex (correctness over micro-optimisation — recording is
// gated on trace::enabled(), so the lock is never touched when
// observability is off). All recording methods are no-ops while disabled.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "trace/histogram.hpp"
#include "trace/json.hpp"
#include "util/stats.hpp"

namespace agcm::simnet {
struct RunResult;
}

namespace agcm::trace {

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Drops every recorded metric. Must not race with recording.
  void reset();

  // --- recording (no-ops while trace::enabled() is false) ------------------

  /// Adds `delta` to counter `name` for `rank` (monotone accumulator).
  void add(std::string_view name, int rank, double delta = 1.0);

  /// Sets gauge `name` for `rank` (last value wins).
  void set_gauge(std::string_view name, int rank, double value);

  /// Feeds one sample into the merged distribution `name`: Welford stats
  /// for the moments plus a log-binned histogram for p50/p95/p99, merged
  /// across all ranks. The histogram side is order-independent, so
  /// percentiles are deterministic even under concurrent recording.
  void observe(std::string_view name, double value);

  /// Sets host-only gauge `name`: a reading of the simulator's own
  /// machinery (buffer-pool hits, live channels) that depends on how the
  /// host scheduled the ranks. Host gauges are kept apart from every other
  /// metric — names() and to_json() leave them out — so no byte-compared
  /// artefact ever carries one.
  void set_host_gauge(std::string_view name, double value);

  // --- snapshot ------------------------------------------------------------

  /// Every host gauge, by name.
  std::map<std::string, double> host_gauges() const;

  /// Sum of counter `name` across ranks (0 when absent).
  double total(const std::string& name) const;

  /// Per-rank counter or gauge values, sorted by rank.
  std::vector<std::pair<int, double>> per_rank(const std::string& name) const;

  /// Merged distribution for `name` (empty stats when absent).
  RunningStats distribution(const std::string& name) const;

  /// Log-binned histogram of the merged distribution (empty when absent).
  LogHistogram histogram(const std::string& name) const;

  /// Streaming percentile of distribution `name`; `q` in [0, 100]
  /// (0 when absent). See LogHistogram for the accuracy contract.
  double percentile(const std::string& name, double q) const;

  /// All known metric names (counters, gauges, distributions), sorted.
  std::vector<std::string> names() const;

  /// Full snapshot: {"counters": {name: {"total": x, "per_rank": {...}}},
  /// "gauges": {...}, "distributions": {name: {count, mean, stddev, min,
  /// max, p50, p95, p99}}}.
  JsonValue to_json() const;

 private:
  MetricsRegistry() = default;

  using PerRank = std::map<int, double>;

  struct Distribution {
    RunningStats stats;
    LogHistogram hist;
  };

  mutable std::mutex mutex_;
  std::map<std::string, PerRank> counters_;
  std::map<std::string, PerRank> gauges_;
  std::map<std::string, Distribution> distributions_;
  std::map<std::string, double> host_gauges_;
};

/// Adds a finished run's traffic ledgers to the per-rank counters
/// comm.messages_sent / comm.bytes_sent (ranks that sent a message) and
/// comm.messages_recv / comm.bytes_recv (ranks that received one). No-op
/// while tracing is off.
void record_traffic(const simnet::RunResult& run);

}  // namespace agcm::trace
