// Host-side measurement helpers: clocks, process resource usage and the
// host fingerprint printed with every result.
#pragma once

#include <vector>

#include "trace/json.hpp"

namespace perfbench {

/// Steady-clock seconds (arbitrary origin).
double now_s();

/// Process-wide resource usage (all threads), from getrusage(RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  ///< voluntary + involuntary
  double cpu_s() const { return user_s + sys_s; }
};
Usage usage_now();
Usage operator-(const Usage& a, const Usage& b);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Fiber workers a Machine of `nranks` ranks resolves to by default.
int resolved_workers(int nranks);

/// nproc, CPU model, SIMD tier, compiler, build type and the simnet
/// worker count each machine runs with.
agcm::trace::JsonValue fingerprint(int simnet_workers);

/// True when the binary was compiled with optimisation and without asserts.
bool optimised_build();

double median(std::vector<double> values);

}  // namespace perfbench
