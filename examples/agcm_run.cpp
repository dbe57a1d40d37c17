// Config-file-driven model driver: the closest thing to "running the AGCM"
// as a production tool. Reads a key = value config (see configs/*.cfg),
// integrates, prints the run report, and — when the config asks for it —
// records a virtual-time trace (docs/observability.md):
//
//   trace      = true          # per-phase table on stdout
//   trace_json = my_trace.json # Chrome trace (chrome://tracing, Perfetto)
//   trace_csv  = my_trace.csv  # one line per span, for pandas
//
//   $ ./agcm_run ../configs/t3d_240nodes.cfg
//
// With a trained performance model (PREDICT_MODEL.json, written by
// bench_predict_model) it predicts the run instead of running it: the five
// per-step component times and their per-day totals (docs/perfmodel.md).
// `--set KEY=VALUE` overrides one config key, so what-if sweeps need no
// temporary config files:
//
//   $ ./agcm_run --predict PREDICT_MODEL.json ../configs/t3d_240nodes.cfg
//        --set machine=sp2 --set nlon=288 --set nlat=180
#include <cstdio>
#include <string>

#include "core/config_load.hpp"
#include "core/model.hpp"
#include "core/whatif.hpp"
#include "io/config.hpp"
#include "trace/export.hpp"
#include "trace/json.hpp"
#include "trace/tracer.hpp"
#include "util/logging.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--predict <model.json>] <config-file> "
               "[--set KEY=VALUE ...]\n",
               prog);
  return 2;
}

void print_prediction(const agcm::core::ModelConfig& model,
                      const agcm::perfmodel::Prediction& p) {
  const agcm::perfmodel::Point point = agcm::core::point_from(model);
  std::printf("configuration: %s, %dx%dx%d, %dx%d mesh (%d ranks), %s, lb %s\n",
              point.machine.c_str(), point.nlon, point.nlat, point.nlev,
              point.mesh_rows, point.mesh_cols, point.ranks(),
              point.filter_backend.c_str(), point.lb_enabled ? "on" : "off");
  std::printf("%-18s %14s %14s\n", "phase", "sec/step", "sec/day");
  const double per_day = model.steps_per_day();
  const auto row = [&](const char* phase, double sec) {
    std::printf("%-18s %14.6f %14.3f\n", phase, sec, sec * per_day);
  };
  row("filter", p.filter);
  row("halo", p.halo);
  row("fd", p.fd);
  row("physics_compute", p.physics_compute);
  row("physics_balance", p.physics_balance);
  row("total", p.total());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agcm;
  std::string config_path;
  std::string model_path;
  std::string overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--predict" && i + 1 < argc) {
      model_path = argv[++i];
    } else if (arg == "--set" && i + 1 < argc) {
      const std::string clause = argv[++i];
      if (clause.find('=') == std::string::npos) return usage(argv[0]);
      overrides += "\n" + clause;  // a later key wins in Config
    } else if (config_path.empty() && arg[0] != '-') {
      config_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path.empty()) return usage(argv[0]);

  try {
    const io::Config config = io::Config::from_string(
        trace::read_text_file(config_path) + overrides);
    const core::RunSpec spec = core::run_spec_from(config);

    for (const std::string& key : config.unused_keys())
      log::warn("config key '{}' was not recognised", key);

    const core::ModelConfig& model = spec.model;
    if (!model_path.empty()) {
      print_prediction(model, core::predict_config(
                                  perfmodel::load_model(model_path), model));
      return 0;
    }

    std::printf("AGCM %dx%dx%d on %s, %dx%d nodes, filter=%s\n", model.nlon,
                model.nlat, model.nlev, model.machine.name.c_str(),
                model.mesh_rows, model.mesh_cols,
                std::string(filter::algorithm_name(model.filter_algorithm))
                    .c_str());

    if (spec.trace) trace::set_enabled(true);
    const core::RunReport report =
        core::run_model(model, spec.steps, spec.warmup_steps);

    std::printf("\nseconds per simulated day (virtual):\n");
    std::printf("  filtering  %10.1f\n", report.filter_per_day());
    std::printf("  dynamics   %10.1f\n", report.dynamics_per_day());
    std::printf("  physics    %10.1f\n", report.physics_per_day());
    std::printf("  total      %10.1f\n", report.total_per_day());
    std::printf("diagnostics: mass drift %.2e, zonal Courant %.3f, "
                "physics imbalance %.1f%% -> %.1f%%\n",
                report.mass_drift_rel, report.max_zonal_courant,
                100.0 * report.physics_imbalance_before,
                100.0 * report.physics_imbalance_after);

    if (spec.trace) {
      const auto& tracer = trace::Tracer::instance();
      print_table(trace::phase_table(trace::aggregate_phases(tracer)));
      if (!spec.trace_json_path.empty()) {
        trace::write_chrome_trace(tracer, spec.trace_json_path);
        std::printf("wrote %s (chrome://tracing)\n",
                    spec.trace_json_path.c_str());
      }
      if (!spec.trace_csv_path.empty()) {
        trace::write_trace_csv(tracer, spec.trace_csv_path);
        std::printf("wrote %s\n", spec.trace_csv_path.c_str());
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
