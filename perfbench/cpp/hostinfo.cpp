#include "hostinfo.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "kernels/simd/dispatch.hpp"

namespace perfbench {

namespace json = agcm::trace;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s,
          a.ctx_switches - b.ctx_switches};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int resolved_workers(int nranks) {
  // The fiber scheduler's rule: AGCM_SIMNET_WORKERS when set and positive,
  // else the hardware concurrency, capped at the number of ranks.
  int workers = 0;
  if (const char* env = std::getenv("AGCM_SIMNET_WORKERS"); env && *env)
    workers = std::atoi(env);
  if (workers <= 0)
    workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  return std::min(workers, nranks);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

json::JsonValue fingerprint(int simnet_workers) {
  json::JsonValue fp = json::JsonValue::object();
  fp.set("nproc", affinity_cpus());
  fp.set("hardware_concurrency",
         static_cast<int>(std::thread::hardware_concurrency()));
  fp.set("cpu_model", cpu_model());
  fp.set("simd_tier", agcm::simd::tier_name(agcm::simd::info().active));
#if defined(__clang__)
  fp.set("compiler", std::string("clang ") + __clang_version__);
#else
  fp.set("compiler", std::string("g++ ") + __VERSION__);
#endif
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  fp.set("optimised", optimised_build());
  fp.set("simnet_workers", simnet_workers);
  return fp;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
