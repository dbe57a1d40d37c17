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

namespace {

/// acc += emis[|k1 - k2|] * (theta[k2] - t1) over a run of k2 with the
/// emissivity index moving by `step` (-1 below the diagonal, +1 above);
/// 4-wide unrolled, single sequential accumulator (bit-frozen order).
inline double exchange_run(double acc, const double* __restrict theta,
                           int k2_begin, int count,
                           const double* __restrict emis, int e_begin,
                           int step, double t1) {
#define AGCM_EXCH(p)                                                     \
  acc += emis[e_begin + (p) * step] * (theta[k2_begin + (p)] - t1)
  int p = 0;
  for (; p + 4 <= count; p += 4) {
    AGCM_EXCH(p);
    AGCM_EXCH(p + 1);
    AGCM_EXCH(p + 2);
    AGCM_EXCH(p + 3);
  }
  for (; p < count; ++p) AGCM_EXCH(p);
#undef AGCM_EXCH
  return acc;
}

}  // namespace

void longwave_sweep(double* theta, int nlev, const double* emis,
                    double dt_sec) {
  double* __restrict th = theta;
  const double* __restrict em = emis;
  for (int k1 = 0; k1 < nlev; ++k1) {
    const double t1 = th[k1];
    // Splitting the seed's k2 loop at the k1 == k2 skip keeps the k2
    // ascending order exactly: [0, k1) then (k1, nlev).
    double exchange = exchange_run(0.0, th, 0, k1, em, k1, -1, t1);
    exchange =
        exchange_run(exchange, th, k1 + 1, nlev - 1 - k1, em, 1, +1, t1);
    th[k1] += dt_sec * (exchange - 0.8) / 86400.0;
  }
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
