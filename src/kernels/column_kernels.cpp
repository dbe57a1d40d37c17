#include "kernels/column_kernels.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "util/shared_cache.hpp"

namespace agcm::kernels {

void fill_longwave_emissivity(double* emis, int nlev) {
  for (int d = 0; d < nlev; ++d)
    emis[d] = 0.015 / (1.0 + d);  // == 0.015 / (1.0 + |k1 - k2|) bit for bit
}

namespace {

// One slot per nlev up to kMaxSharedNlev (well past any AGCM vertical
// resolution). A published table is immutable; `storage` owns every table
// ever published (cleared slots are reset, their tables retired in place),
// so a pointer handed to a reader never dangles even across a cache clear.
constexpr int kMaxSharedNlev = 64;

struct EmissivityCache {
  std::atomic<const double*> slots[kMaxSharedNlev + 1] = {};
  std::mutex mutex;  ///< guards storage + slot publication + stats
  std::vector<std::unique_ptr<double[]>> storage;
  util::SharedCacheStats stats;

  static EmissivityCache& instance() {
    static EmissivityCache cache;
    return cache;
  }

 private:
  EmissivityCache() {
    util::SharedCaches::register_cache(
        "kernels.emissivity", [] { clear_emissivity_cache(); },
        [] {
          EmissivityCache& c = instance();
          std::lock_guard<std::mutex> lock(c.mutex);
          return c.stats;
        });
  }
};

}  // namespace

const double* shared_longwave_emissivity(int nlev) {
  if (nlev < 1 || nlev > kMaxSharedNlev) return nullptr;
  if (!util::SharedCaches::enabled()) return nullptr;
  EmissivityCache& cache = EmissivityCache::instance();
  const auto slot = static_cast<std::size_t>(nlev);
  // Hot path: one acquire load per column, no lock.
  if (const double* table =
          cache.slots[slot].load(std::memory_order_acquire)) {
    return table;
  }
  std::lock_guard<std::mutex> lock(cache.mutex);
  if (const double* table =
          cache.slots[slot].load(std::memory_order_acquire)) {
    // Lost the publication race. (The lock-free fast path above does not
    // bump `hits` — a per-column atomic add would put a contended cache
    // line on the hot path; the counter records first acquisitions only.)
    ++cache.stats.hits;
    return table;
  }
  ++cache.stats.misses;
  auto table = std::make_unique<double[]>(static_cast<std::size_t>(nlev));
  fill_longwave_emissivity(table.get(), nlev);  // identical bits to a local fill
  const double* published = table.get();
  cache.storage.push_back(std::move(table));
  cache.slots[slot].store(published, std::memory_order_release);
  return published;
}

void clear_emissivity_cache() {
  EmissivityCache& cache = EmissivityCache::instance();
  std::lock_guard<std::mutex> lock(cache.mutex);
  // Reset the slots only: retired tables stay in `storage`, so readers
  // that already hold a pointer keep a valid immutable table.
  for (auto& slot : cache.slots) slot.store(nullptr, std::memory_order_relaxed);
}

// Note on convection_sweep: it stays scalar by design. Each pass reads
// th[k] and th[k+1] where th[k] may have been rewritten by the previous
// iteration (a loop-carried dependence), so there is no per-point
// independence to vectorize without changing the adjustment order — and
// the iteration count it returns feeds the frozen virtual-time model.
int convection_sweep(double* theta, double* q, int nlev, double threshold,
                     int max_iters, double& precipitation) {
  double* __restrict th = theta;
  double* __restrict qv = q;
  int iters = 0;
  while (iters < max_iters) {
    bool unstable = false;
    for (int k = 0; k + 1 < nlev; ++k) {
      const double lower = th[k];
      const double upper = th[k + 1];
      if (upper - lower < -threshold) {
        const double mixed = 0.5 * (lower + upper);
        th[k] = mixed - 0.25 * threshold;
        th[k + 1] = mixed + 0.25 * threshold;
        const double condensed = 0.1 * qv[k];
        qv[k] -= condensed;
        precipitation += condensed;
        th[k] += 120.0 * condensed;
        unstable = true;
      }
    }
    ++iters;
    if (!unstable) break;
  }
  return iters;
}

}  // namespace agcm::kernels
