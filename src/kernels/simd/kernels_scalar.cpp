// Scalar tier of the SIMD dispatch table.
//
// Every kernel here is the seed's per-point expression tree, 4-wide
// unrolled exactly like the PR 4 engine rows it replaces — so the forced-
// scalar tier IS the PR 4 engine, and the bitwise chain
//   seed reference == scalar tier == (self-checked) SIMD tiers
// anchors at the left end in code that is compiled with the build's
// default flags (no -m options, no -ffp-contract pin: if the whole build
// is compiled with unusual FP flags, this TU drifts in lockstep with the
// seed paths, and the dispatcher's self-check demotes the SIMD tiers
// instead — bits before speed).
#include "kernels/simd/kernels.hpp"

namespace agcm::simd::detail {

namespace {

void flux_row(int n, double scale, const double* __restrict vel,
              const double* __restrict h, const double* __restrict hn,
              double* __restrict out) {
#define AGCM_FLUX(p) out[(p)] = vel[(p)] * 0.5 * (h[(p)] + hn[(p)]) * scale
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    AGCM_FLUX(i);
    AGCM_FLUX(i + 1);
    AGCM_FLUX(i + 2);
    AGCM_FLUX(i + 3);
  }
  for (; i < n; ++i) AGCM_FLUX(i);
#undef AGCM_FLUX
}

void advect_update_row(int ni, double dt_inv_area,
                       const double* __restrict fxr,
                       const double* __restrict fyr,
                       const double* __restrict fys,
                       const double* __restrict cr,
                       const double* __restrict cs,
                       const double* __restrict cn,
                       const double* __restrict hor,
                       const double* __restrict hnr, double* __restrict up) {
#define AGCM_UPDATE(p)                                                     \
  do {                                                                     \
    const double fe = fxr[(p)];                                            \
    const double fw = fxr[(p) - 1];                                        \
    const double fn = fyr[(p)];                                            \
    const double fs = fys[(p)];                                            \
    const double flux_e = fe * (fe >= 0.0 ? cr[(p)] : cr[(p) + 1]);        \
    const double flux_w = fw * (fw >= 0.0 ? cr[(p) - 1] : cr[(p)]);        \
    const double flux_n = fn * (fn >= 0.0 ? cr[(p)] : cn[(p)]);            \
    const double flux_s = fs * (fs >= 0.0 ? cs[(p)] : cr[(p)]);            \
    const double ch = cr[(p)] * hor[(p)] -                                 \
                      dt_inv_area * (flux_e - flux_w + flux_n - flux_s);   \
    up[(p)] = ch / hnr[(p)];                                               \
  } while (0)
  int i = 0;
  for (; i + 4 <= ni; i += 4) {
    AGCM_UPDATE(i);
    AGCM_UPDATE(i + 1);
    AGCM_UPDATE(i + 2);
    AGCM_UPDATE(i + 3);
  }
  for (; i < ni; ++i) AGCM_UPDATE(i);
#undef AGCM_UPDATE
}

void stencil7_interior(int n, const double* __restrict f,
                       const double* __restrict fjp,
                       const double* __restrict fjm,
                       const double* __restrict fkp,
                       const double* __restrict fkm, double* __restrict out) {
#define AGCM_LAP7(p)                                                  \
  out[(p)] += f[(p) + 1] + f[(p) - 1] + fjp[(p)] + fjm[(p)] +         \
              fkp[(p)] + fkm[(p)] - 6.0 * f[(p)]
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    AGCM_LAP7(i);
    AGCM_LAP7(i + 1);
    AGCM_LAP7(i + 2);
    AGCM_LAP7(i + 3);
  }
  for (; i < n; ++i) AGCM_LAP7(i);
#undef AGCM_LAP7
}

void pointwise_panel(std::size_t m, const double* __restrict a,
                     const double* __restrict b, double* __restrict out) {
  std::size_t q = 0;
  for (; q + 4 <= m; q += 4) {
    out[q] = a[q] * b[q];
    out[q + 1] = a[q + 1] * b[q + 1];
    out[q + 2] = a[q + 2] * b[q + 2];
    out[q + 3] = a[q + 3] * b[q + 3];
  }
  for (; q < m; ++q) out[q] = a[q] * b[q];
}

void daxpy(std::size_t n, double alpha, const double* __restrict x,
           double* __restrict y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Four outputs at a time, each with its own accumulator held across all
/// m sources: output c adds kext[b_g + c] * src[g] for g ascending, the
/// order of its dot product, while the four chains run side by side.
void conv_chunk(std::size_t width, std::size_t m, std::size_t n,
                std::size_t lag0, const double* __restrict kext,
                const double* __restrict src, double* __restrict dst) {
  std::size_t c = 0;
  for (; c + 4 <= width; c += 4) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t b = lag0;
    for (std::size_t g = 0; g < m; ++g) {
      const double s = src[g];
      const double* k = kext + b + c;
      a0 += k[0] * s;
      a1 += k[1] * s;
      a2 += k[2] * s;
      a3 += k[3] * s;
      b = (b == 0 ? n : b) - 1;
    }
    dst[c] += a0;
    dst[c + 1] += a1;
    dst[c + 2] += a2;
    dst[c + 3] += a3;
  }
  for (; c < width; ++c) {
    double a = 0.0;
    std::size_t b = lag0;
    for (std::size_t g = 0; g < m; ++g) {
      a += kext[b + c] * src[g];
      b = (b == 0 ? n : b) - 1;
    }
    dst[c] += a;
  }
}

// ---- column physics across lanes -----------------------------------------
//
// A lane is one column; each lane runs the one-column sequence of
// operations in the one-column order (the compiler may pack lanes into
// baseline SSE2 pairs: they are independent, so that changes no bit). The
// longwave exchange keeps its sums in a block of kBlock accumulators, so
// kBlock independent chains are in flight; N > 0 fixes the lane count at
// compile time for full blocks, N == 0 takes it from `nl` for the tail,
// so one column does one column's work.

constexpr std::size_t kBlock = 8;

/// acc[l] += e * (t2[l] - t1[l]) for l in [0, n).
inline void exchange_row(std::size_t n, double e,
                         const double* __restrict t2,
                         const double* __restrict t1,
                         double* __restrict acc) {
  for (std::size_t l = 0; l < n; ++l) acc[l] += e * (t2[l] - t1[l]);
}

template <std::size_t N>
void longwave_block(int nlev, std::size_t nl, std::size_t stride,
                    const double* emis, double dt_sec, double* p) {
  const std::size_t n = N != 0 ? N : nl;
  for (int k1 = 0; k1 < nlev; ++k1) {
    double* t1 = p + static_cast<std::size_t>(k1) * stride;
    double acc[kBlock];
    for (std::size_t l = 0; l < n; ++l) acc[l] = 0.0;
    // The one-column sum split at the k1 == k2 skip: [0, k1), (k1, nlev).
    for (int k2 = 0; k2 < k1; ++k2)
      exchange_row(n, emis[k1 - k2], p + static_cast<std::size_t>(k2) * stride,
                   t1, acc);
    for (int k2 = k1 + 1; k2 < nlev; ++k2)
      exchange_row(n, emis[k2 - k1], p + static_cast<std::size_t>(k2) * stride,
                   t1, acc);
    for (std::size_t l = 0; l < n; ++l)
      t1[l] += dt_sec * (acc[l] - 0.8) / 86400.0;
  }
}

void longwave_lanes(int nlev, std::size_t lanes, std::size_t stride,
                    const double* emis, double dt_sec, double* panel) {
  std::size_t l0 = 0;
  for (; l0 + kBlock <= lanes; l0 += kBlock)
    longwave_block<kBlock>(nlev, kBlock, stride, emis, dt_sec, panel + l0);
  if (l0 < lanes)
    longwave_block<0>(nlev, lanes - l0, stride, emis, dt_sec, panel + l0);
}

/// x[l] = (x[l] - a * xp[l]) / denom for l in [0, n).
inline void forward_row(std::size_t n, double a, double denom,
                        const double* __restrict xp, double* __restrict x) {
  for (std::size_t l = 0; l < n; ++l) x[l] = (x[l] - a * xp[l]) / denom;
}

/// x[l] = x[l] - cp * xn[l] for l in [0, n).
inline void backward_row(std::size_t n, double cp, const double* __restrict xn,
                         double* __restrict x) {
  for (std::size_t l = 0; l < n; ++l) x[l] = x[l] - cp * xn[l];
}

/// The rows already live in the panel, so one pass over all lanes per
/// level keeps every lane's divisions independent without blocking.
void thomas_lanes(int nlev, std::size_t lanes, std::size_t stride,
                  const double* a, const double* cp, const double* denom,
                  double* panel) {
  for (std::size_t l = 0; l < lanes; ++l) panel[l] = panel[l] / denom[0];
  for (int k = 1; k < nlev; ++k) {
    double* x = panel + static_cast<std::size_t>(k) * stride;
    forward_row(lanes, a[k], denom[k], x - stride, x);
  }
  for (int k = nlev - 1; k-- > 0;) {
    double* x = panel + static_cast<std::size_t>(k) * stride;
    backward_row(lanes, cp[k], x + stride, x);
  }
}

}  // namespace

const KernelOps& scalar_ops() {
  static const KernelOps ops{flux_row,        advect_update_row,
                             stencil7_interior, pointwise_panel,
                             daxpy,           conv_chunk,
                             longwave_lanes,  thomas_lanes,
                             kBlock};
  return ops;
}

}  // namespace agcm::simd::detail
