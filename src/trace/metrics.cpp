#include "trace/metrics.hpp"

#include <algorithm>

#include "simnet/machine.hpp"
#include "trace/tracer.hpp"

namespace agcm::trace {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  distributions_.clear();
  host_gauges_.clear();
}

void MetricsRegistry::add(std::string_view name, int rank, double delta) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  counters_[std::string(name)][rank] += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, int rank,
                                double value) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  gauges_[std::string(name)][rank] = value;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  Distribution& dist = distributions_[std::string(name)];
  dist.stats.add(value);
  dist.hist.add(value);
}

void MetricsRegistry::set_host_gauge(std::string_view name, double value) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  host_gauges_[std::string(name)] = value;
}

std::map<std::string, double> MetricsRegistry::host_gauges() const {
  std::lock_guard lock(mutex_);
  return host_gauges_;
}

double MetricsRegistry::total(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) return 0.0;
  double sum = 0.0;
  for (const auto& [rank, value] : it->second) sum += value;
  return sum;
}

std::vector<std::pair<int, double>> MetricsRegistry::per_rank(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  const std::map<std::string, PerRank>* source = &counters_;
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = gauges_.find(name);
    if (it == gauges_.end()) return {};
    source = &gauges_;
  }
  (void)source;
  return {it->second.begin(), it->second.end()};
}

RunningStats MetricsRegistry::distribution(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = distributions_.find(name);
  return it == distributions_.end() ? RunningStats{} : it->second.stats;
}

LogHistogram MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = distributions_.find(name);
  return it == distributions_.end() ? LogHistogram{} : it->second.hist;
}

double MetricsRegistry::percentile(const std::string& name, double q) const {
  std::lock_guard lock(mutex_);
  const auto it = distributions_.find(name);
  return it == distributions_.end() ? 0.0 : it->second.hist.percentile(q);
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, _] : counters_) out.push_back(name);
  for (const auto& [name, _] : gauges_) out.push_back(name);
  for (const auto& [name, _] : distributions_) out.push_back(name);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

JsonValue MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  JsonValue root = JsonValue::object();

  auto per_rank_json = [](const PerRank& values) {
    JsonValue obj = JsonValue::object();
    double sum = 0.0;
    for (const auto& [rank, value] : values) {
      obj.set(std::to_string(rank), value);
      sum += value;
    }
    JsonValue entry = JsonValue::object();
    entry.set("total", sum);
    entry.set("per_rank", std::move(obj));
    return entry;
  };

  JsonValue counters = JsonValue::object();
  for (const auto& [name, values] : counters_)
    counters.set(name, per_rank_json(values));
  root.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, values] : gauges_)
    gauges.set(name, per_rank_json(values));
  root.set("gauges", std::move(gauges));

  JsonValue distributions = JsonValue::object();
  for (const auto& [name, dist] : distributions_) {
    const RunningStats& stats = dist.stats;
    JsonValue entry = JsonValue::object();
    entry.set("count", static_cast<std::uint64_t>(stats.count()));
    entry.set("mean", stats.mean());
    entry.set("stddev", stats.stddev());
    entry.set("min", stats.min());
    entry.set("max", stats.max());
    entry.set("p50", dist.hist.percentile(50.0));
    entry.set("p95", dist.hist.percentile(95.0));
    entry.set("p99", dist.hist.percentile(99.0));
    distributions.set(name, std::move(entry));
  }
  root.set("distributions", std::move(distributions));
  return root;
}

void record_traffic(const simnet::RunResult& run) {
  if (!enabled()) return;
  MetricsRegistry& metrics = MetricsRegistry::instance();
  for (std::size_t r = 0; r < run.traffic.size(); ++r) {
    const simnet::Traffic& t = run.traffic[r];
    const int rank = static_cast<int>(r);
    if (t.messages_sent > 0) {
      metrics.add("comm.messages_sent", rank,
                  static_cast<double>(t.messages_sent));
      metrics.add("comm.bytes_sent", rank, static_cast<double>(t.bytes_sent));
    }
    if (t.messages_recv > 0) {
      metrics.add("comm.messages_recv", rank,
                  static_cast<double>(t.messages_recv));
      metrics.add("comm.bytes_recv", rank, static_cast<double>(t.bytes_recv));
    }
  }
}

}  // namespace agcm::trace
