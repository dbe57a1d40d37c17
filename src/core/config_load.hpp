// Shared `key = value` -> ModelConfig loader, used by the agcm_run example
// and every bench binary's config-file mode, so the config dialect is
// defined exactly once. See configs/*.cfg and docs/observability.md for the
// recognised keys (grid/mesh/machine/scheme plus the trace_* options).
#pragma once

#include <string>

#include "core/model.hpp"
#include "io/config.hpp"

namespace agcm::core {

/// One full run request parsed from a config file: the model itself plus
/// step counts and the tracing options.
struct RunSpec {
  ModelConfig model;
  int steps = 4;
  int warmup_steps = 1;

  // Observability (off by default; see docs/observability.md):
  //   trace        = true|false   enable the virtual-time tracer for the run
  //   trace_json   = <path>       write a Chrome trace (implies trace)
  //   trace_csv    = <path>       write the flat span CSV (implies trace)
  bool trace = false;
  std::string trace_json_path;
  std::string trace_csv_path;
};

/// Individual enum parsers (throw ConfigError on unknown names).
filter::FilterAlgorithm parse_filter_algorithm(const std::string& name);
dynamics::TimeScheme parse_time_scheme(const std::string& name);
simnet::MachineProfile parse_machine_profile(const std::string& name);
/// Accepts the canonical names plus the paper's "scheme1" / "scheme2" /
/// "scheme3" aliases.
lb::Scheme parse_lb_scheme(const std::string& name);
physics::PhysicsRegime parse_physics_regime(const std::string& name);
simnet::SimBackend parse_sim_backend(const std::string& name);

/// Builds a RunSpec from a parsed config. Does not check unused_keys():
/// callers reject typos themselves (io::Config::reject_unused_keys) after
/// reading any extra keys of their own. Throws ConfigError, naming the key,
/// when lb_max_iterations, lb_tolerance or simnet_workers is negative (0 is
/// valid for each).
RunSpec run_spec_from(const io::Config& config);

/// Convenience: from_file + run_spec_from.
RunSpec run_spec_from_file(const std::string& path);

}  // namespace agcm::core
