// Runtime CPU dispatch for the explicit-SIMD kernel backend.
//
// The paper's single-node optimizations (Section 3.4) targeted mid-90s
// microarchitectures through cache tiling and loop unrolling; the modern
// equivalent of that headroom is explicit data-level parallelism. This
// module resolves — once per process — which instruction-set tier the host
// supports (scalar / AVX2 / AVX-512 doubles) and hands out a function table
// of hot inner-loop kernels for that tier (docs/kernels.md, "SIMD dispatch
// tier").
//
// FP contract: every family — advection flux + upwind-update rows, the
// 7-point stencil interior row, the §3.4 pointwise ⊗ panel, daxpy, the
// ring convolution's chunk sums, the column physics' longwave exchange and
// Thomas solve — is an independent per-point update whose SIMD form
// performs exactly the seed's multiplies/adds per lane (no FMA: the SIMD
// translation units are compiled with -ffp-contract=off, and the baseline
// x86-64 scalar build has no FMA to contract into). Every tier's output is
// therefore bitwise identical to the scalar engine, which is itself
// bitwise identical to the preserved seed paths, and every family runs
// dispatched in production. The families that compute sums or recurrences
// vectorise across independent problems only: a convolution lane is one
// output, a column-physics lane is one column, and each lane runs the
// scalar sequence of operations in the scalar order, so no single sum is
// reassociated. Dot products (ddot, ddot_strided) and the FFT stages have
// no dispatched form: they stay sequential scalar code.
//
// Robustness: after resolving a tier, the dispatcher runs a bitwise
// self-check of every family against the scalar kernels on synthetic data.
// A family that cannot reproduce the scalar bits on this compiler/host
// (e.g. an exotic toolchain that contracts the scalar code) is demoted to
// scalar individually — performance degrades, bits never do.
//
// Overrides: AGCM_SIMD={scalar,avx2,avx512} caps the tier (CI forced-
// fallback legs, A/B testing); requests above what the host/build supports
// clamp down with a warning. Tests and benches can switch tiers at runtime
// via force_tier()/reset_tier() (single-threaded use only).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace agcm::simd {

/// Instruction-set tiers, ascending. kScalar is always available and is
/// bit-for-bit the PR 4 unrolled-scalar engine.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* tier_name(Tier t);

/// Parses "scalar" / "avx2" / "avx512" (case-insensitive). Returns false
/// (and leaves `out` untouched) for anything else.
bool parse_tier(std::string_view name, Tier& out);

/// The kernel families behind the dispatch table (for demotion reporting).
enum class Family : int {
  kFluxRow = 0,
  kAdvectUpdateRow,
  kStencil7Interior,
  kPointwisePanel,
  kDaxpy,
  kConvChunk,
  kLongwaveLanes,
  kThomasLanes,
};
inline constexpr int kFamilyCount = 8;

const char* family_name(Family f);

/// Per-tier function table of the hot inner loops. All pointers are always
/// non-null (scalar fills any slot a tier cannot cover).
struct KernelOps {
  /// out[i] = vel[i] * 0.5 * (h[i] + hn[i]) * scale for i in [0, n).
  /// Serves both advection flux directions (flux_x calls it with pointers
  /// shifted by -1 and hn = h + 1).
  void (*flux_row)(int n, double scale, const double* vel, const double* h,
                   const double* hn, double* out);
  /// One tracer's upwind flux-form update over one row (the seed's
  /// expression tree per point; see kernels/advection_kernels.cpp).
  void (*advect_update_row)(int ni, double dt_inv_area, const double* fxr,
                            const double* fyr, const double* fys,
                            const double* cr, const double* cs,
                            const double* cn, const double* hor,
                            const double* hnr, double* up);
  /// out[i] += f[i+1] + f[i-1] + fjp[i] + fjm[i] + fkp[i] + fkm[i]
  ///           - 6.0 * f[i] for i in [0, n); `f` addresses the first
  /// interior point, so f[-1] must be valid.
  void (*stencil7_interior)(int n, const double* f, const double* fjp,
                            const double* fjm, const double* fkp,
                            const double* fkm, double* out);
  /// One §3.4 pointwise ⊗ panel: out[q] = a[q] * b[q] for q in [0, m).
  void (*pointwise_panel)(std::size_t m, const double* a, const double* b,
                          double* out);
  /// y[i] = y[i] + alpha * x[i] (mul-then-add, never fused).
  void (*daxpy)(std::size_t n, double alpha, const double* x, double* y);
  /// One held chunk of the ring convolution (filter/convolution.cpp) into
  /// `width` outputs. With b_g = (lag0 - g) mod n, for each c in
  /// [0, width): acc = +0.0; then, for g = 0 .. m-1 in ascending order,
  ///   acc += kext[b_g + c] * src[g];
  /// then dst[c] += acc. `kext` is the n-point kernel extended periodically
  /// to n + width - 1 entries (kext[i] = kernel[i mod n]), so the lag
  /// never wraps inside a vector; width <= n, m <= n and lag0 < n.
  void (*conv_chunk)(std::size_t width, std::size_t m, std::size_t n,
                     std::size_t lag0, const double* kext, const double* src,
                     double* dst);
  /// The longwave exchange of `lanes` columns held level-major in `panel`:
  /// column l's level k is t_l[k] = panel[k * stride + l], stride >= lanes.
  /// For each lane, for k1 = 0 .. nlev-1 in order: acc = +0.0; then
  ///   acc += emis[k1 - k2] * (t[k2] - t[k1])  for k2 = 0 .. k1-1,
  ///   acc += emis[k2 - k1] * (t[k2] - t[k1])  for k2 = k1+1 .. nlev-1,
  /// ascending; then t[k1] += dt_sec * (acc - 0.8) / 86400.0. Later layers
  /// see earlier layers' updates. Entries past `lanes` in each level row
  /// are never touched.
  void (*longwave_lanes)(int nlev, std::size_t lanes, std::size_t stride,
                         const double* emis, double dt_sec, double* panel);
  /// Thomas solve of `lanes` tridiagonal systems that share one matrix,
  /// in place on the same level-major panel, from the matrix's pivots
  /// (denom[0] = b[0], denom[k] = b[k] - a[k] * cp[k-1], cp[k] = c[k] /
  /// denom[k]). Per lane: x[0] = x[0] / denom[0]; x[k] = (x[k] - a[k] *
  /// x[k-1]) / denom[k] for k ascending; then x[k] = x[k] - cp[k] * x[k+1]
  /// for k descending: linsolve::thomas_solve_into's operations, with the
  /// data-independent ones done once by the caller.
  void (*thomas_lanes)(int nlev, std::size_t lanes, std::size_t stride,
                       const double* a, const double* cp, const double* denom,
                       double* panel);
  /// Columns per batch of the column physics engine at this tier: enough
  /// vectors of independent columns to hide the add latency of the two
  /// column families above.
  std::size_t column_lanes;
};

/// The resolved dispatch decision (exported into bench/trace metadata).
struct DispatchInfo {
  Tier detected = Tier::kScalar;   ///< best tier the CPU + build support
  Tier requested = Tier::kScalar;  ///< after the AGCM_SIMD override
  Tier active = Tier::kScalar;     ///< what ops() actually serves
  bool env_override = false;       ///< AGCM_SIMD was set (and non-empty)
  std::string env_value;           ///< raw AGCM_SIMD value, if any
  bool built_avx2 = false;         ///< AVX2 kernels compiled into the binary
  bool built_avx512 = false;       ///< AVX-512 kernels compiled in
  std::vector<std::string> cpu_features;      ///< detected host features
  std::vector<std::string> demoted_families;  ///< failed bitwise self-check
};

/// The active kernel table. Resolved on first use (cpuid + AGCM_SIMD +
/// bitwise self-check); constant afterwards unless force_tier() is called.
const KernelOps& ops();

/// The active tier (== info().active).
Tier active_tier();

/// The full dispatch decision.
const DispatchInfo& info();

/// True when `t`'s kernels are compiled in AND the host CPU supports them.
bool tier_supported(Tier t);

/// Re-resolves the table for an explicit tier (tests/benches; not
/// thread-safe against concurrent kernel calls). Returns false — leaving
/// the current table untouched — if the tier is not supported. The bitwise
/// self-check and per-family demotion run for the forced tier too.
bool force_tier(Tier t);

/// Restores the automatic (cpuid + AGCM_SIMD) resolution.
void reset_tier();

}  // namespace agcm::simd
