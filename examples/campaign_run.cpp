// Campaign driver: expands a campaign .cfg into its scenario matrix, serves
// the experiments on a bounded concurrent worker budget, and streams the
// results to a JSON-lines store (schema agcm-campaign-v1; query it with
// tools/campaign_query.py). See docs/campaign.md.
//
//   $ ./campaign_run ../configs/campaign_smoke.cfg --out results.jsonl
//        --concurrency 4
//
// With a trained performance model the driver plans admission before
// running anything: cells are ordered cheapest-first by predicted per-day
// virtual cost and, under --budget, only the prefix that fits is run.
//
//   $ ./campaign_run ../configs/campaign_smoke.cfg
//        --predict PREDICT_MODEL.json --budget 1200 --out results.jsonl
//
// Flags:
//   --out <path>        store file (default: campaign_results.jsonl)
//   --concurrency <N>   experiments in flight at once (default 4)
//   --append            append to the store instead of replacing it
//   --no-wall           omit wall_sec from records (byte-stable store)
//   --list              print the expanded matrix and exit without running
//   --predict <path>    PREDICT_MODEL.json; plan admission and record
//                       predictions alongside actuals
//   --budget <sec>      predicted virtual sec/day cap (requires --predict)
#include <cstdio>
#include <cstring>
#include <string>

#include "campaign/matrix.hpp"
#include "campaign/planner.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "io/config.hpp"
#include "perfmodel/predict.hpp"
#include "util/error.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <campaign.cfg> [--out <path>] [--concurrency N] "
               "[--append] [--no-wall] [--list] [--predict <model.json>] "
               "[--budget <sec/day>]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agcm;
  std::string config_path;
  std::string out_path = "campaign_results.jsonl";
  std::string model_path;
  double budget = -1.0;
  bool have_budget = false;
  int concurrency = 4;
  bool append = false;
  bool include_wall = true;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--concurrency" && i + 1 < argc) {
      concurrency = std::atoi(argv[++i]);
    } else if (arg == "--predict" && i + 1 < argc) {
      model_path = argv[++i];
    } else if (arg == "--budget" && i + 1 < argc) {
      budget = std::atof(argv[++i]);
      have_budget = true;
    } else if (arg == "--append") {
      append = true;
    } else if (arg == "--no-wall") {
      include_wall = false;
    } else if (arg == "--list") {
      list_only = true;
    } else if (config_path.empty() && arg[0] != '-') {
      config_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path.empty() || concurrency < 1) return usage(argv[0]);
  if (have_budget && model_path.empty()) {
    std::fprintf(stderr, "error: --budget requires --predict <model.json>\n");
    return 2;
  }

  try {
    const io::Config config = io::Config::from_file(config_path);
    const campaign::Campaign matrix = campaign::campaign_from(config);
    config.reject_unused_keys();

    std::printf("campaign '%s': %zu experiments\n", matrix.name.c_str(),
                matrix.cells.size());
    if (list_only) {
      for (const campaign::Cell& cell : matrix.cells)
        std::printf("  %s  %s\n", cell.config_hash.c_str(),
                    cell.name.c_str());
      return 0;
    }

    campaign::RunnerOptions options;
    options.concurrency = concurrency;

    std::vector<campaign::CellResult> results;
    if (!model_path.empty()) {
      const perfmodel::PredictModel model = perfmodel::load_model(model_path);
      const campaign::AdmissionPlan plan =
          campaign::plan_admission(matrix, model, budget);
      std::printf(
          "planned: %zu admitted, %zu over budget "
          "(predicted %.3f virtual s/day%s)\n",
          plan.admitted.size(), plan.skipped.size(),
          plan.admitted_predicted_per_day_sec,
          have_budget ? ", capped" : "");
      for (const campaign::PlannedCell& cell : plan.skipped)
        std::printf("  skipped %s (predicted %.3f s/day)\n",
                    matrix.cells[cell.index].name.c_str(),
                    cell.predicted_per_day_sec);
      results = campaign::run_planned(matrix, plan, options);
    } else {
      results = campaign::run_campaign(matrix, options);
    }

    campaign::write_store(out_path, matrix.name, results, include_wall,
                          append);
    double total_wall = 0.0;
    for (const campaign::CellResult& result : results)
      total_wall += result.wall_sec;
    std::printf("wrote %zu records to %s (%.2f s of experiment wall time)\n",
                results.size(), out_path.c_str(), total_wall);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
