#include "workload.hpp"

#include "io/config.hpp"
#include "trace/json.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace core = agcm::core;

Workload load_workload(const std::string& dir, const std::string& name,
                       std::uint64_t model_seed) {
  std::string text = agcm::trace::read_text_file(dir + "/" + name + ".cfg");
  text += "\nseed = " + std::to_string(model_seed) + "\n";
  const agcm::io::Config config = agcm::io::Config::from_string(text);

  Workload workload;
  workload.name = name;
  if (config.has("campaign")) {
    workload.is_campaign = true;
    workload.campaign = agcm::campaign::campaign_from(config);
    agcm::check_config(!workload.campaign.cells.empty(),
                       "campaign workload has no cells");
    workload.spec = workload.campaign.cells.front().spec;
  } else {
    workload.spec = core::run_spec_from(config);
  }
  return workload;
}

bool lb_active(const core::ModelConfig& config) {
  return config.physics_load_balance &&
         config.lb_scheme != agcm::lb::Scheme::kNone;
}

core::ModelConfig lb_twin(const core::ModelConfig& config) {
  core::ModelConfig twin = config;
  // Mirrors the config loader: the scheme axis decides, the flag follows.
  twin.lb_scheme = lb_active(config) ? agcm::lb::Scheme::kNone
                                     : agcm::lb::Scheme::kPairwise;
  twin.physics_load_balance = twin.lb_scheme != agcm::lb::Scheme::kNone;
  return twin;
}

}  // namespace perfbench
