#include "core/config_load.hpp"

#include "util/error.hpp"

namespace agcm::core {

filter::FilterAlgorithm parse_filter_algorithm(const std::string& name) {
  using filter::FilterAlgorithm;
  if (name == "convolution-ring") return FilterAlgorithm::kConvolutionRing;
  if (name == "convolution-tree") return FilterAlgorithm::kConvolutionTree;
  if (name == "fft-transpose") return FilterAlgorithm::kFftTranspose;
  if (name == "fft-load-balanced") return FilterAlgorithm::kFftBalanced;
  if (name == "convolution-partitioned")
    return FilterAlgorithm::kConvolutionPartitioned;
  if (name == "implicit-zonal") return FilterAlgorithm::kImplicitZonal;
  throw ConfigError("unknown filter_algorithm '" + name + "'");
}

dynamics::TimeScheme parse_time_scheme(const std::string& name) {
  using dynamics::TimeScheme;
  if (name == "forward-backward") return TimeScheme::kForwardBackward;
  if (name == "leapfrog") return TimeScheme::kLeapfrog;
  throw ConfigError("unknown time_scheme '" + name + "'");
}

simnet::MachineProfile parse_machine_profile(const std::string& name) {
  using simnet::MachineProfile;
  if (name == "paragon") return MachineProfile::intel_paragon();
  if (name == "t3d") return MachineProfile::cray_t3d();
  if (name == "sp2") return MachineProfile::ibm_sp2();
  if (name == "ideal") return MachineProfile::ideal();
  throw ConfigError("unknown machine '" + name + "'");
}

lb::Scheme parse_lb_scheme(const std::string& name) {
  using lb::Scheme;
  if (name == "none") return Scheme::kNone;
  if (name == "cyclic" || name == "scheme1") return Scheme::kCyclic;
  if (name == "sorted-greedy" || name == "scheme2")
    return Scheme::kSortedGreedy;
  if (name == "pairwise" || name == "scheme3") return Scheme::kPairwise;
  throw ConfigError("unknown lb_scheme '" + name + "'");
}

physics::PhysicsRegime parse_physics_regime(const std::string& name) {
  using physics::PhysicsRegime;
  if (name == "equinox") return PhysicsRegime::kEquinox;
  if (name == "june-solstice") return PhysicsRegime::kJuneSolstice;
  if (name == "december-solstice") return PhysicsRegime::kDecemberSolstice;
  throw ConfigError("unknown physics_regime '" + name + "'");
}

simnet::SimBackend parse_sim_backend(const std::string& name) {
  using simnet::SimBackend;
  if (name == "fibers") return SimBackend::kFibers;
  if (name == "threads") return SimBackend::kThreads;
  throw ConfigError("unknown simnet_backend '" + name + "'");
}

RunSpec run_spec_from(const io::Config& config) {
  RunSpec spec;
  ModelConfig& model = spec.model;
  model.nlon = config.get_int("nlon", 144);
  model.nlat = config.get_int("nlat", 90);
  model.nlev = config.get_int("nlev", 9);
  model.mesh_rows = config.require_int("mesh_rows");
  model.mesh_cols = config.require_int("mesh_cols");
  model.dt_sec = config.get_double("dt_sec", 450.0);
  model.time_scheme =
      parse_time_scheme(config.get_string("time_scheme", "forward-backward"));
  model.machine =
      parse_machine_profile(config.get_string("machine", "t3d"));
  model.filter_algorithm = parse_filter_algorithm(
      config.get_string("filter_algorithm", "fft-load-balanced"));
  model.use_polar_filter = config.get_bool("polar_filter", true);
  model.physics_enabled = config.get_bool("physics", true);
  model.physics_load_balance = config.get_bool("physics_load_balance", false);
  // The scheme axis subsumes the boolean: `lb_scheme = none` turns
  // balancing off even if the legacy flag is set, any other scheme turns
  // it on. With no lb_scheme key the legacy flag keeps its historical
  // meaning (pairwise when true).
  model.lb_scheme = parse_lb_scheme(config.get_string(
      "lb_scheme", model.physics_load_balance ? "pairwise" : "none"));
  model.physics_load_balance = model.lb_scheme != lb::Scheme::kNone;
  model.lb_options.max_iterations =
      config.get_int("lb_max_iterations", model.lb_options.max_iterations);
  check_config(model.lb_options.max_iterations >= 0,
               "lb_max_iterations must be >= 0");
  model.lb_options.tolerance =
      config.get_double("lb_tolerance", model.lb_options.tolerance);
  check_config(model.lb_options.tolerance >= 0.0,
               "lb_tolerance must be >= 0");
  model.physics_regime = parse_physics_regime(
      config.get_string("physics_regime", "equinox"));
  model.optimized_advection = config.get_bool("optimized_advection", false);
  model.seed = static_cast<std::uint64_t>(config.get_int("seed", 1996));
  if (config.has("simnet_backend"))
    model.simnet_backend =
        parse_sim_backend(config.require_string("simnet_backend"));
  model.simnet_workers = config.get_int("simnet_workers", 0);
  check_config(model.simnet_workers >= 0, "simnet_workers must be >= 0");
  spec.steps = config.get_int("steps", 4);
  spec.warmup_steps = config.get_int("warmup_steps", 1);

  spec.trace_json_path = config.get_string("trace_json", "");
  spec.trace_csv_path = config.get_string("trace_csv", "");
  spec.trace = config.get_bool(
      "trace", !spec.trace_json_path.empty() || !spec.trace_csv_path.empty());
  return spec;
}

RunSpec run_spec_from_file(const std::string& path) {
  return run_spec_from(io::Config::from_file(path));
}

}  // namespace agcm::core
