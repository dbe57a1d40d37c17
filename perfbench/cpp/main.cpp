// agcm_perfbench: the measuring half of the host-time benchmark.
//
//   agcm_perfbench <measure|trace|reference> --workloads DIR --workload NAME
//                  --model-seed N [--seconds S]
//
// Prints one JSON object on stdout: the host fingerprint, the metrics of
// the mode (end-to-end for `measure`, per-layer for `trace`) as
// name -> [value, unit], and one check record per executed run. run.py
// builds this binary, compares the checks' digests against the held
// reference and prints the benchmark's result line.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "hostinfo.hpp"
#include "probes.hpp"
#include "rebuild.hpp"
#include "report_digest.hpp"
#include "trace/json.hpp"
#include "util/shared_cache.hpp"
#include "workload.hpp"

namespace {

using agcm::trace::JsonValue;
namespace core = agcm::core;
namespace campaign = agcm::campaign;
using namespace perfbench;

struct Args {
  std::string mode;
  std::string dir;
  std::string workload;
  std::uint64_t model_seed = 0;
  double seconds = 10.0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2 || argc % 2 != 0)
    throw std::runtime_error("usage: <mode> (--option value)...");
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workloads") args.dir = value;
    else if (key == "--workload") args.workload = value;
    else if (key == "--model-seed") args.model_seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else throw std::runtime_error("unknown option " + key);
  }
  if (args.dir.empty() || args.workload.empty())
    throw std::runtime_error("--workloads and --workload are required");
  return args;
}

/// Output of one benchmark process.
class Output {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    JsonValue entry = JsonValue::array();
    entry.push_back(value);
    entry.push_back(unit);
    metrics_.set(name, std::move(entry));
  }
  void note(const std::string& line) { notes_.push_back(line); }

  /// One executed run. `reference`: its digest must equal the held
  /// reference for this workload and seed. `equal_to`: it must equal this
  /// digest (a rebuild against its run_model).
  void check(const std::string& label, const std::string& digest,
             double mass_drift, bool reference,
             const std::string& equal_to = "") {
    JsonValue c = JsonValue::object();
    c.set("label", label);
    c.set("digest", digest);
    c.set("mass_drift", mass_drift);
    c.set("reference", reference);
    if (!equal_to.empty()) c.set("equal_to", equal_to);
    checks_.push_back(std::move(c));
  }
  void failure(const std::string& label, const std::string& error) {
    JsonValue c = JsonValue::object();
    c.set("label", label);
    c.set("error", error);
    checks_.push_back(std::move(c));
  }

  void print(JsonValue fingerprint) {
    JsonValue out = JsonValue::object();
    out.set("fingerprint", std::move(fingerprint));
    out.set("metrics", metrics_);
    out.set("checks", checks_);
    out.set("notes", notes_);
    std::printf("%s\n", out.dump().c_str());
  }

 private:
  JsonValue metrics_ = JsonValue::object();
  JsonValue checks_ = JsonValue::array();
  JsonValue notes_ = JsonValue::array();
};

/// Calls `fn` until `budget_s` has elapsed and it ran at least `min_runs`
/// times. Returns the elapsed seconds.
double repeat_for(double budget_s, int min_runs, const std::function<void()>& fn) {
  const double t0 = now_s();
  for (int n = 0; n < min_runs || now_s() - t0 < budget_s; ++n) fn();
  return now_s() - t0;
}

/// Nearest-rank percentile of `values` (q in [0, 100]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string fmt(const char* format, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

double max_mass_drift(const std::vector<campaign::CellResult>& results) {
  double drift = 0.0;
  for (const auto& r : results) drift = std::max(drift, r.report.mass_drift_rel);
  return drift;
}

campaign::RunnerOptions runner_options() {
  campaign::RunnerOptions options;
  options.concurrency = kCampaignConcurrency;
  options.workers_per_machine = kCampaignWorkersPerMachine;
  return options;
}

/// One timed execution of the workload: a run_model call, or the campaign.
struct Execution {
  double wall_s = 0.0;
  Usage usage;
  std::vector<double> cell_wall_s;  ///< per cell (the call itself for models)
  double steps = 0.0;               ///< model steps executed, all cells
  bool ok = false;
};

Execution execute(const Workload& w, Output& out, const std::string& label) {
  Execution e;
  const Usage u0 = usage_now();
  const double t0 = now_s();
  try {
    if (w.is_campaign) {
      const auto results = campaign::run_campaign(w.campaign, runner_options());
      e.wall_s = now_s() - t0;
      for (const auto& r : results) {
        e.cell_wall_s.push_back(r.wall_sec);
        e.steps += r.cell.spec.steps + r.cell.spec.warmup_steps;
      }
      out.check(label, campaign_digest(results), max_mass_drift(results), true);
    } else {
      const core::RunReport report =
          core::run_model(w.spec.model, w.spec.steps, w.spec.warmup_steps);
      e.wall_s = now_s() - t0;
      e.cell_wall_s.push_back(e.wall_s);
      e.steps = w.spec.steps + w.spec.warmup_steps;
      out.check(label, report_digest(report), report.mass_drift_rel, true);
    }
    e.ok = true;
  } catch (const std::exception& ex) {
    e.wall_s = now_s() - t0;
    out.failure(label, ex.what());
  }
  e.usage = usage_now() - u0;
  return e;
}

/// Cold set-up of the whole workload: for a model, launch until every rank
/// built Dynamics, Physics and State; for the campaign, matrix expansion
/// plus every cell's set-up served like the campaign itself.
double setup_once(const Args& args, const Workload& w) {
  if (!w.is_campaign) {
    agcm::util::SharedCaches::clear_all();
    return run_setup(w.spec.model, false).total_s;
  }
  const double t0 = now_s();
  const Workload fresh = load_workload(args.dir, args.workload, args.model_seed);
  agcm::util::SharedCaches::clear_all();
  const auto& cells = fresh.campaign.cells;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto serve = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
      core::ModelConfig config = cells[i].spec.model;
      config.simnet_workers = kCampaignWorkersPerMachine;
      try {
        run_setup(config, false);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kCampaignConcurrency; ++t) pool.emplace_back(serve);
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
  return now_s() - t0;
}

std::vector<double> cell_walls(const std::vector<Execution>& runs) {
  std::vector<double> walls;
  for (const auto& e : runs)
    if (e.ok) walls.insert(walls.end(), e.cell_wall_s.begin(), e.cell_wall_s.end());
  return walls;
}

// --- measure: end-to-end metrics, no instrumentation -------------------------

void measure(const Args& args, const Workload& w, Output& out) {
  execute(w, out, "warm-up");  // process, caches and pools warm; not timed

  // Cold shared caches, warm process: the set-up a campaign cell or a new
  // run pays. Each set-up is short, so many of them are needed to span
  // enough host time for a steady median.
  std::vector<double> setups;
  const int setup_runs = w.is_campaign ? 21 : 61;
  for (int i = 0; i < setup_runs; ++i) setups.push_back(setup_once(args, w));
  execute(w, out, "re-warm");  // the timed window starts with warm caches

  // The campaign needs >= 100 cells so that p90 has >= 10 samples beyond it.
  const int cells_per_run =
      w.is_campaign ? static_cast<int>(w.campaign.cells.size()) : 1;
  const int min_runs = w.is_campaign ? (99 + cells_per_run) / cells_per_run : 3;
  std::vector<Execution> runs;
  const double window_s = repeat_for(args.seconds, min_runs, [&] {
    runs.push_back(execute(w, out, "run " + std::to_string(runs.size())));
  });

  std::vector<double> walls, cpus;
  for (const auto& e : runs) {
    if (!e.ok) continue;
    walls.push_back(e.wall_s);
    cpus.push_back(e.usage.cpu_s());
  }
  const std::vector<double> cells = cell_walls(runs);
  out.metric("run_s", median(walls), "s");
  out.metric("cpu_s", median(cpus), "s");
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("cells_per_s", static_cast<double>(cells.size()) / window_s, "1/s");
  out.metric("cell_s_p50", median(cells), "s");
  out.metric("cell_s_p90", percentile(cells, 90.0), "s");
  const auto [wmin, wmax] = std::minmax_element(walls.begin(), walls.end());
  const auto [smin, smax] = std::minmax_element(setups.begin(), setups.end());
  if (!walls.empty())
    out.note("run_s range " + fmt("%.4f", *wmin) + " .. " + fmt("%.4f", *wmax) +
             " s; setup_s range " + fmt("%.4f", *smin) + " .. " +
             fmt("%.4f", *smax) + " s");
  out.note("run_s, cpu_s: median of " + std::to_string(walls.size()) +
           " runs; setup_s: median of " + std::to_string(setups.size()) +
           " cold set-ups");
  out.note("cell_s_p50/p90 over " + std::to_string(cells.size()) + " " +
           (w.is_campaign ? "cells" : "run_model calls") + ", " +
           std::to_string(cells.size() - static_cast<std::size_t>(std::ceil(
                                             0.9 * static_cast<double>(cells.size())))) +
           " samples beyond p90");
}

// --- trace: per-layer breakdown -------------------------------------------

/// Host splits of repeated rebuilds of one model.
struct RebuildStats {
  std::vector<double> dynamics_ms, physics_ms;  ///< every timed step
  std::vector<double> warmup_ms;                ///< warm-up minus median step
  std::vector<double> other_ms, wall_s, pool_reuse;
  core::RunReport report;

  void add(const Rebuild& rb, int warmup) {
    report = rb.report;
    std::vector<double> step_ms;
    double accounted = rb.host.setup_s;
    for (std::size_t s = 0; s < rb.host.dynamics_s.size(); ++s) {
      const double d = rb.host.dynamics_s[s] * 1e3;
      const double p = rb.host.physics_s[s] * 1e3;
      accounted += (d + p) * 1e-3;
      if (static_cast<int>(s) < warmup) continue;
      dynamics_ms.push_back(d);
      physics_ms.push_back(p);
      step_ms.push_back(d + p);
    }
    if (warmup > 0)
      warmup_ms.push_back((rb.host.dynamics_s[0] + rb.host.physics_s[0]) * 1e3 -
                          median(step_ms));
    other_ms.push_back((rb.wall_s - accounted) * 1e3);
    wall_s.push_back(rb.wall_s);
    pool_reuse.push_back(static_cast<double>(rb.pool_reuses) /
                         static_cast<double>(std::max<std::uint64_t>(rb.pool_acquires, 1)));
  }
};

/// Exact messages and bytes per step of `report`'s run: its totals minus
/// those of the same program with zero steps, over all its steps.
std::pair<double, double> traffic_per_step(const core::ModelConfig& config,
                                           const core::RunReport& report,
                                           int steps) {
  const Rebuild base = run_rebuild(config, 0, 0);
  return {static_cast<double>(report.total_messages -
                              base.report.total_messages) / steps,
          static_cast<double>(report.total_bytes - base.report.total_bytes) /
              steps};
}

std::map<std::string, agcm::util::SharedCacheStats> cache_stats() {
  std::map<std::string, agcm::util::SharedCacheStats> stats;
  for (const auto& info : agcm::util::SharedCaches::stats())
    stats[info.name] = info.stats;
  return stats;
}

void trace(const Args& args, const Workload& w, Output& out) {
  const double budget = args.seconds;
  // The campaign's layers are broken down on its first cell, served the
  // way the campaign serves it.
  core::ModelConfig config = w.spec.model;
  if (w.is_campaign) config.simnet_workers = kCampaignWorkersPerMachine;
  const int steps = w.spec.steps;
  const int warmup = w.spec.warmup_steps;
  const int nranks = config.nranks();

  // Shared-cache hit ratios over one execution from cold caches.
  agcm::util::SharedCaches::clear_all();
  const auto caches0 = cache_stats();
  execute(w, out, "cold run");
  for (const char* name : {"fft.plans", "filter.banks", "kernels.emissivity"}) {
    const auto& before = caches0.count(name) ? caches0.at(name)
                                             : agcm::util::SharedCacheStats{};
    const auto after = cache_stats()[name];
    const double hits = static_cast<double>(after.hits - before.hits);
    const double total = hits + static_cast<double>(after.misses - before.misses);
    out.metric(std::string("cache.") + name + ".hit_ratio",
               total > 0 ? hits / total : 0.0, "ratio");
    out.note(std::string("cache.") + name + ": " + fmt("%.0f", hits) +
             " hits of " + fmt("%.0f", total) + " lookups");
  }

  // Untraced executions: OS-level counters and the campaign's slot use.
  std::vector<Execution> runs;
  repeat_for(budget / 4, 2, [&] {
    runs.push_back(execute(w, out, "untraced " + std::to_string(runs.size())));
  });
  double user = 0, sys = 0, ctx = 0, steps_done = 0;
  std::vector<double> busy;
  for (const auto& e : runs) {
    user += e.usage.user_s;
    sys += e.usage.sys_s;
    ctx += e.usage.ctx_switches;
    steps_done += e.steps;
    // Slots: the runner's for the campaign (cell seconds over slot
    // seconds), the fiber workers' for a single model (CPU over worker
    // seconds).
    double busy_s = e.usage.cpu_s();
    int slots = resolved_workers(nranks);
    if (w.is_campaign) {
      busy_s = 0;
      for (double c : e.cell_wall_s) busy_s += c;
      slots = kCampaignConcurrency;
    }
    busy.push_back(busy_s / (e.wall_s * slots));
  }
  out.metric("simnet.sys_cpu_frac", sys / std::max(user + sys, 1e-9), "ratio");
  out.metric("simnet.ctx_switches_per_step", ctx / std::max(steps_done, 1.0),
             "count");
  out.metric("campaign.slot_busy_frac", median(busy), "ratio");

  // run_model, its rebuild and the rebuild of its LB twin, interleaved so
  // that all three see the same host. Every rebuild must equal run_model.
  const core::ModelConfig twin_config = lb_twin(config);
  const core::RunReport twin_report = core::run_model(twin_config, steps, warmup);
  const std::string twin_digest = report_digest(twin_report);
  out.check("twin run_model", twin_digest, twin_report.mass_drift_rel, false);
  std::vector<double> model_wall;
  RebuildStats own, twin;
  repeat_for(budget / 2, 2, [&] {
    const double t0 = now_s();
    const core::RunReport report = core::run_model(config, steps, warmup);
    model_wall.push_back(now_s() - t0);
    const std::string digest = report_digest(report);
    out.check("run_model", digest, report.mass_drift_rel, !w.is_campaign);
    const Rebuild rb = run_rebuild(config, steps, warmup);
    out.check("rebuild", report_digest(rb.report), rb.report.mass_drift_rel,
              !w.is_campaign, digest);
    own.add(rb, warmup);
    const Rebuild rb_twin = run_rebuild(twin_config, steps, warmup);
    out.check("twin rebuild", report_digest(rb_twin.report),
              rb_twin.report.mass_drift_rel, false, twin_digest);
    twin.add(rb_twin, warmup);
  });
  const bool lb_on = lb_active(config);
  const RebuildStats& with_lb = lb_on ? own : twin;
  const RebuildStats& without_lb = lb_on ? twin : own;
  const int all_steps = steps + warmup;
  const auto [msgs, bytes] = traffic_per_step(config, own.report, all_steps);
  const double twin_msgs =
      traffic_per_step(twin_config, twin.report, all_steps).first;
  const double lb_msgs = lb_on ? msgs - twin_msgs : twin_msgs - msgs;

  out.metric("simnet.msgs_per_step", msgs, "count");
  out.metric("simnet.bytes_per_step", bytes, "B");
  out.metric("simnet.pool_reuse", median(own.pool_reuse), "ratio");

  const double dyn_ms = median(own.dynamics_ms);
  const double phys_ms = median(own.physics_ms);
  out.metric("dynamics.step_ms", dyn_ms, "ms");
  out.metric("physics.step_ms", phys_ms, "ms");
  out.metric("physics.columns_per_s",
             static_cast<double>(config.nlon) * config.nlat / (phys_ms * 1e-3),
             "1/s");
  out.metric("lb.ms_per_step",
             median(with_lb.physics_ms) - median(without_lb.physics_ms), "ms");
  out.metric("lb.msgs_per_step", lb_msgs, "count");
  out.metric("lb.imbalance_after", with_lb.report.physics_imbalance_after,
             "ratio");
  out.metric("lb.balance_over_compute",
             with_lb.report.per_step.physics_balance /
                 with_lb.report.per_step.physics_compute,
             "ratio");
  out.metric("core.warmup_ms", median(own.warmup_ms), "ms");
  out.metric("other_ms", median(own.other_ms), "ms");
  out.metric("trace.overhead_frac",
             median(own.wall_s) / median(model_wall) - 1.0, "ratio");

  std::vector<double> setup_dyn, setup_phys;
  for (int i = 0; i < 3; ++i) {
    agcm::util::SharedCaches::clear_all();
    const SetupTiming t = run_setup(config, true);
    setup_dyn.push_back(t.dynamics_s * 1e3);
    setup_phys.push_back(t.physics_s * 1e3);
  }
  out.metric("core.setup_dynamics_ms", median(setup_dyn), "ms");
  out.metric("core.setup_physics_ms", median(setup_phys), "ms");

  const double probe_s = budget / 40;
  const ProbeResult filter = run_probe(Probe::kFilter, config, probe_s);
  const ProbeResult halo = run_probe(Probe::kHalo, config, probe_s);
  const ProbeResult barrier = run_probe(Probe::kBarrier, config, probe_s);
  const ProbeResult gather = run_probe(Probe::kAllgatherv, config, probe_s);
  const ProbeResult a2a = run_probe(Probe::kAlltoallv, config, probe_s);
  const ProbeResult ring = run_probe(Probe::kRing, config, probe_s);
  const ProbeResult launch = run_probe(Probe::kLaunch, config, probe_s);
  out.metric("filter.apply_ms", filter.host_s_per_op * 1e3, "ms");
  out.metric("filter.msgs_per_apply", filter.msgs_per_op, "count");
  out.metric("grid.halo_ms", halo.host_s_per_op * 1e3, "ms");
  out.metric("grid.halo_msgs", halo.msgs_per_op, "count");
  out.metric("dynamics.self_ms_est",
             dyn_ms - filter.host_s_per_op * 1e3 - halo.host_s_per_op * 1e3,
             "ms");
  out.metric("comm.barrier_us", barrier.host_s_per_op * 1e6, "us");
  out.metric("comm.barrier_msgs", barrier.msgs_per_op, "count");
  out.metric("comm.allgatherv_us", gather.host_s_per_op * 1e6, "us");
  out.metric("comm.allgatherv_msgs", gather.msgs_per_op, "count");
  out.metric("comm.alltoallv_us", a2a.host_s_per_op * 1e6, "us");
  out.metric("comm.alltoallv_msgs", a2a.msgs_per_op, "count");
  out.metric("simnet.ns_per_msg",
             ring.host_s_per_op / std::max(ring.msgs_per_op, 1.0) * 1e9, "ns");
  out.metric("simnet.launch_s", launch.host_s_per_op, "s");

  const std::pair<const char*, const ProbeResult*> probes[] = {
      {"filter", &filter}, {"halo", &halo},      {"barrier", &barrier},
      {"allgatherv", &gather}, {"alltoallv", &a2a}, {"ring", &ring},
      {"launch", &launch}};
  for (const auto& [name, r] : probes)
    out.note(std::string("probe ") + name + ": " + std::to_string(r->ops) +
             " ops at P=" + std::to_string(nranks));
  out.note("per-step host medians over " + std::to_string(own.dynamics_ms.size()) +
           " timed steps of " + std::to_string(own.wall_s.size()) + " rebuilds" +
           (w.is_campaign ? " of the campaign's first cell" : ""));
  out.note("simnet.pool_reuse base: BufferPool acquires of one rebuilt run");
}

// --- reference: the virtual results the output checks compare against -----

void reference(const Workload& w, Output& out) {
  if (w.is_campaign) {
    const auto results = campaign::run_campaign(w.campaign, runner_options());
    out.check("reference", campaign_digest(results), max_mass_drift(results),
              true);
    std::uint64_t messages = 0;
    for (const auto& r : results) messages += r.report.total_messages;
    out.metric("total_messages", static_cast<double>(messages), "count");
    return;
  }
  const core::RunReport report =
      core::run_model(w.spec.model, w.spec.steps, w.spec.warmup_steps);
  out.check("reference", report_digest(report), report.mass_drift_rel, true);
  out.metric("total_messages", static_cast<double>(report.total_messages),
             "count");
  out.metric("total_virtual_s_per_step", report.per_step.total(), "s");
  out.metric("imbalance_after", report.physics_imbalance_after, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = load_workload(args.dir, args.workload, args.model_seed);
    Output out;
    if (args.mode == "measure") measure(args, w, out);
    else if (args.mode == "trace") trace(args, w, out);
    else if (args.mode == "reference") reference(w, out);
    else throw std::runtime_error("unknown mode " + args.mode);
    out.print(fingerprint(w.is_campaign
                              ? kCampaignWorkersPerMachine
                              : resolved_workers(w.spec.model.nranks())));
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "agcm_perfbench: %s\n", ex.what());
    return 2;
  }
}
