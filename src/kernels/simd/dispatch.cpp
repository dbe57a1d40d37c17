#include "kernels/simd/dispatch.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "kernels/simd/kernels.hpp"

namespace agcm::simd {

namespace {

constexpr const char* kTierNames[] = {"scalar", "avx2", "avx512"};

constexpr const char* kFamilyNames[] = {"flux_row", "advect_update_row",
                                        "stencil7_interior", "pointwise_panel",
                                        "daxpy", "conv_chunk",
                                        "longwave_lanes", "thomas_lanes"};
static_assert(std::size(kFamilyNames) == kFamilyCount);

const KernelOps* tier_table(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return &detail::scalar_ops();
    case Tier::kAvx2:
      return detail::avx2_ops();
    case Tier::kAvx512:
      return detail::avx512_ops();
  }
  return nullptr;
}

// __builtin_cpu_supports demands a string *literal*, so each probe is
// spelled out behind a macro rather than passed through a function.
#if defined(__x86_64__) || defined(__i386__)
#define AGCM_CPU_SUPPORTS(lit) (__builtin_cpu_supports(lit) != 0)
#else
#define AGCM_CPU_SUPPORTS(lit) false
#endif

bool host_supports(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return AGCM_CPU_SUPPORTS("avx2");
    case Tier::kAvx512:
      return AGCM_CPU_SUPPORTS("avx512f") && AGCM_CPU_SUPPORTS("avx512dq") &&
             AGCM_CPU_SUPPORTS("avx512vl");
  }
  return false;
}

std::vector<std::string> detect_features() {
  const std::pair<const char*, bool> probes[] = {
      {"sse2", AGCM_CPU_SUPPORTS("sse2")},
      {"avx", AGCM_CPU_SUPPORTS("avx")},
      {"avx2", AGCM_CPU_SUPPORTS("avx2")},
      {"fma", AGCM_CPU_SUPPORTS("fma")},
      {"avx512f", AGCM_CPU_SUPPORTS("avx512f")},
      {"avx512dq", AGCM_CPU_SUPPORTS("avx512dq")},
      {"avx512vl", AGCM_CPU_SUPPORTS("avx512vl")},
      {"avx512bw", AGCM_CPU_SUPPORTS("avx512bw")},
  };
  std::vector<std::string> out;
  for (const auto& [name, has] : probes) {
    if (has) out.emplace_back(name);
  }
  return out;
}

// ---- bitwise self-check of every family -------------------------------
//
// Deterministic dyadic fill (an LCG scaled to exact power-of-two steps) so
// the check itself is reproducible and mixes signs — the upwind selects
// must exercise both branches.
void fill_det(double* p, std::size_t n, unsigned seed, double base) {
  unsigned s = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = base + (static_cast<double>(s >> 8) * 0x1p-24 - 0.5) * 0.125;
  }
}

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Runs candidate vs scalar for one family over awkward sizes
/// (including remainder lanes 1..7) and returns true on bitwise identity.
bool check_family(Family f, const KernelOps& cand, const KernelOps& ref) {
  constexpr int kMax = 41;      // covers several vectors plus odd tails
  constexpr int kPad = 2;       // halo for the offset-indexed kernels
  constexpr int kBuf = kMax + 2 * kPad;
  double a[kBuf], b[kBuf], c[kBuf], d[kBuf], e[kBuf], g[kBuf], h[kBuf];
  double o1[kBuf], o2[kBuf];
  double kext[2 * kMax];  // g[0 .. kMax) / 3, extended periodically
  // Level-major column panels: up to kLev levels of n lanes, each level
  // row padded by kPad lanes that the kernels must leave alone.
  constexpr int kLev = 12;
  constexpr int kPanel = kLev * (kMax + kPad);
  double p1[kPanel], p2[kPanel];
  double emis[kLev], sub[kLev], cp[kLev], denom[kLev];
  fill_det(a, kBuf, 1, 0.0);
  fill_det(b, kBuf, 2, 0.0);
  fill_det(c, kBuf, 3, 0.0);
  fill_det(d, kBuf, 4, 0.0);
  fill_det(e, kBuf, 5, 0.0);
  fill_det(g, kBuf, 6, 1.0);  // thickness-like streams, bounded away
  fill_det(h, kBuf, 7, 1.0);  // from zero (divisor)
  // Non-dyadic and near 1/3, so the products round, the sums are not
  // exact and outgrow dst's entries: a change in the order of
  // conv_chunk's adds shows in the bits.
  for (int i = 0; i < 2 * kMax; ++i) kext[i] = g[i % kMax] / 3.0;
  // Non-dyadic coefficients again, so every product and quotient rounds.
  for (int k = 0; k < kLev; ++k) {
    emis[k] = 0.015 / (1.0 + k);
    sub[k] = -a[k] / 3.0;
    cp[k] = b[k] / 3.0;
    denom[k] = g[k] + 0.5;
  }
  for (int n : {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 24, 31, kMax}) {
    fill_det(o1, kBuf, 8, 0.25);
    std::memcpy(o2, o1, sizeof(o1));
    // Temperatures spread over ±85, non-dyadic, and a time step of
    // 1024 days: the exchange sums round, and each layer's heating
    // outgrows its temperature, so a change in the order of the sum's adds
    // survives into the bits (with theta near 1 and a 450 s step it would
    // be absorbed by the - 0.8 and the += almost always).
    fill_det(p1, kPanel, 9, 0.0);
    for (double& t : p1) t *= 4096.0 / 3.0;
    std::memcpy(p2, p1, sizeof(p1));
    // Lane checks: n columns of 1 .. kLev levels (nlev 1 at n = 24).
    const int nlev = 1 + 5 * n % kLev;
    const auto lanes = static_cast<std::size_t>(n);
    const std::size_t stride = lanes + kPad;
    switch (f) {
      case Family::kFluxRow:
        ref.flux_row(n, 0.75, a + kPad, b + kPad, b + kPad + 1, o1 + kPad);
        cand.flux_row(n, 0.75, a + kPad, b + kPad, b + kPad + 1, o2 + kPad);
        break;
      case Family::kAdvectUpdateRow:
        ref.advect_update_row(n, 0.5, a + kPad, b + kPad, c + kPad, d + kPad,
                              e + kPad, g + kPad, h + kPad, g + kPad,
                              o1 + kPad);
        cand.advect_update_row(n, 0.5, a + kPad, b + kPad, c + kPad, d + kPad,
                               e + kPad, g + kPad, h + kPad, g + kPad,
                               o2 + kPad);
        break;
      case Family::kStencil7Interior:
        ref.stencil7_interior(n, a + kPad, b + kPad, c + kPad, d + kPad,
                              e + kPad, o1 + kPad);
        cand.stencil7_interior(n, a + kPad, b + kPad, c + kPad, d + kPad,
                               e + kPad, o2 + kPad);
        break;
      case Family::kPointwisePanel:
        ref.pointwise_panel(static_cast<std::size_t>(n), a + kPad, b + kPad,
                            o1 + kPad);
        cand.pointwise_panel(static_cast<std::size_t>(n), a + kPad, b + kPad,
                             o2 + kPad);
        break;
      case Family::kDaxpy:
        ref.daxpy(static_cast<std::size_t>(n), 1.375, a + kPad, o1 + kPad);
        cand.daxpy(static_cast<std::size_t>(n), 1.375, a + kPad, o2 + kPad);
        break;
      case Family::kConvChunk: {
        // A kMax-point kernel, n outputs from kMax + 1 - n sources, the
        // wrap moving through the row as n changes.
        const auto w = static_cast<std::size_t>(n);
        const auto m = static_cast<std::size_t>(kMax + 1 - n);
        const auto lag0 = static_cast<std::size_t>(7 * n % kMax);
        ref.conv_chunk(w, m, kMax, lag0, kext, h, o1 + kPad);
        cand.conv_chunk(w, m, kMax, lag0, kext, h, o2 + kPad);
        break;
      }
      case Family::kLongwaveLanes:
        ref.longwave_lanes(nlev, lanes, stride, emis, 1024.0 * 86400.0, p1);
        cand.longwave_lanes(nlev, lanes, stride, emis, 1024.0 * 86400.0, p2);
        break;
      case Family::kThomasLanes:
        ref.thomas_lanes(nlev, lanes, stride, sub, cp, denom, p1);
        cand.thomas_lanes(nlev, lanes, stride, sub, cp, denom, p2);
        break;
    }
    if (!bits_equal(o1, o2, kBuf) || !bits_equal(p1, p2, kPanel))
      return false;
  }
  return true;
}

struct State {
  DispatchInfo info;
  KernelOps ops;
};

/// Builds the table for `tier`, self-checking every family and demoting
/// mismatches to scalar.
void apply_tier(State& st, Tier tier) {
  const KernelOps& scalar = detail::scalar_ops();
  const KernelOps* table = tier_table(tier);
  st.info.active = tier;
  st.info.demoted_families.clear();
  st.ops = (table != nullptr) ? *table : scalar;
  if (tier == Tier::kScalar || table == nullptr) {
    st.info.active = Tier::kScalar;
    st.ops = scalar;
    return;
  }
  // Check each family; on mismatch, point that slot back at the
  // scalar kernel (the rest of the tier stays active).
  const auto check = [&](Family f, auto KernelOps::*slot) {
    if (!check_family(f, *table, scalar)) {
      st.ops.*slot = scalar.*slot;
      st.info.demoted_families.emplace_back(family_name(f));
    }
  };
  check(Family::kFluxRow, &KernelOps::flux_row);
  check(Family::kAdvectUpdateRow, &KernelOps::advect_update_row);
  check(Family::kStencil7Interior, &KernelOps::stencil7_interior);
  check(Family::kPointwisePanel, &KernelOps::pointwise_panel);
  check(Family::kDaxpy, &KernelOps::daxpy);
  check(Family::kConvChunk, &KernelOps::conv_chunk);
  check(Family::kLongwaveLanes, &KernelOps::longwave_lanes);
  check(Family::kThomasLanes, &KernelOps::thomas_lanes);
}

State resolve_auto() {
  State st;
  st.info.built_avx2 = detail::avx2_ops() != nullptr;
  st.info.built_avx512 = detail::avx512_ops() != nullptr;
  st.info.cpu_features = detect_features();

  st.info.detected = Tier::kScalar;
  if (st.info.built_avx2 && host_supports(Tier::kAvx2))
    st.info.detected = Tier::kAvx2;
  if (st.info.built_avx512 && host_supports(Tier::kAvx512))
    st.info.detected = Tier::kAvx512;

  st.info.requested = st.info.detected;
  if (const char* env = std::getenv("AGCM_SIMD"); env && env[0] != '\0') {
    st.info.env_override = true;
    st.info.env_value = env;
    Tier want;
    if (!parse_tier(env, want)) {
      std::fprintf(stderr,
                   "agcm: ignoring AGCM_SIMD='%s' (expected scalar, avx2 or "
                   "avx512)\n",
                   env);
    } else if (static_cast<int>(want) > static_cast<int>(st.info.detected)) {
      std::fprintf(stderr,
                   "agcm: AGCM_SIMD=%s not supported by this host/build; "
                   "using %s\n",
                   tier_name(want), tier_name(st.info.detected));
    } else {
      st.info.requested = want;
    }
  }
  apply_tier(st, st.info.requested);
  return st;
}

State& state() {
  static State st = resolve_auto();
  return st;
}

}  // namespace

const char* tier_name(Tier t) { return kTierNames[static_cast<int>(t)]; }

bool parse_tier(std::string_view name, Tier& out) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (int i = 0; i < 3; ++i) {
    if (lower == kTierNames[i]) {
      out = static_cast<Tier>(i);
      return true;
    }
  }
  return false;
}

const char* family_name(Family f) {
  return kFamilyNames[static_cast<int>(f)];
}

const KernelOps& ops() { return state().ops; }

Tier active_tier() { return state().info.active; }

const DispatchInfo& info() { return state().info; }

bool tier_supported(Tier t) {
  return tier_table(t) != nullptr && host_supports(t);
}

bool force_tier(Tier t) {
  if (!tier_supported(t)) return false;
  apply_tier(state(), t);
  return true;
}

void reset_tier() {
  State& st = state();
  apply_tier(st, st.info.requested);
}

}  // namespace agcm::simd
