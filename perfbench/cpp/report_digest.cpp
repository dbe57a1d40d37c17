#include "report_digest.hpp"

#include <cstdio>

#include "campaign/matrix.hpp"

namespace perfbench {

namespace {

void put(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%a\n", key, v);
  out += buf;
}

void put(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

void put_percentiles(std::string& out, const char* key,
                     const agcm::core::PhasePercentiles& p) {
  const std::string k(key);
  put(out, (k + ".p50").c_str(), p.p50);
  put(out, (k + ".p95").c_str(), p.p95);
  put(out, (k + ".p99").c_str(), p.p99);
}

}  // namespace

std::string hex_digest(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(agcm::campaign::fnv1a64(text)));
  return buf;
}

std::string report_canonical(const agcm::core::RunReport& r) {
  std::string out;
  put(out, "steps", static_cast<std::uint64_t>(r.steps));
  put(out, "steps_per_day", r.steps_per_day);
  put(out, "filter", r.per_step.filter);
  put(out, "halo", r.per_step.halo);
  put(out, "fd", r.per_step.fd);
  put(out, "physics_compute", r.per_step.physics_compute);
  put(out, "physics_balance", r.per_step.physics_balance);
  put_percentiles(out, "pct.filter", r.percentiles.filter);
  put_percentiles(out, "pct.halo", r.percentiles.halo);
  put_percentiles(out, "pct.fd", r.percentiles.fd);
  put_percentiles(out, "pct.physics_compute", r.percentiles.physics_compute);
  put_percentiles(out, "pct.physics_balance", r.percentiles.physics_balance);
  put(out, "imbalance_before", r.physics_imbalance_before);
  put(out, "imbalance_after", r.physics_imbalance_after);
  for (double flops : r.rank_physics_flops) put(out, "rank_flops", flops);
  put(out, "mass_drift_rel", r.mass_drift_rel);
  put(out, "max_zonal_courant", r.max_zonal_courant);
  put(out, "max_gravity_courant", r.max_gravity_courant);
  put(out, "filter_setup_sec", r.filter_setup_sec);
  put(out, "total_messages", r.total_messages);
  put(out, "total_bytes", r.total_bytes);
  for (const auto& b : r.rank_breakdowns) {
    put(out, "rank.compute", b.compute);
    put(out, "rank.overhead", b.overhead);
    put(out, "rank.wait", b.wait);
  }
  return out;
}

std::string report_digest(const agcm::core::RunReport& report) {
  return hex_digest(report_canonical(report));
}

std::string campaign_digest(
    const std::vector<agcm::campaign::CellResult>& results) {
  std::string text;
  for (const auto& result : results) {
    text += "cell=" + result.cell.name + "\n";
    text += report_canonical(result.report);
  }
  return hex_digest(text);
}

}  // namespace perfbench
