#include "kernels/stencil_kernels.hpp"

#include <cstddef>

#include "kernels/simd/dispatch.hpp"

namespace agcm::kernels {

namespace {

inline std::size_t idx3(int i, int j, int k, int n) {
  return static_cast<std::size_t>(i) +
         static_cast<std::size_t>(n) *
             (static_cast<std::size_t>(j) +
              static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
}

}  // namespace

void laplace_sum_separate_engine(const singlenode::SeparateFields& in,
                                 std::vector<double>& out) {
  const int n = in.n;
  out.assign(static_cast<std::size_t>(n) * n * n, 0.0);
  double* __restrict o = out.data();
  // Interior rows go through the dispatched 7-point kernel (independent
  // per-point updates, bitwise on every tier). The block-layout
  // engine below does NOT dispatch: its inner loop is one sequential
  // accumulator over the m fields per point, and lane-splitting that sum
  // would reassociate it (docs/kernels.md, frozen-artefact rule).
  const simd::KernelOps& ops = simd::ops();
  // Field order (q outer) matches the seed so every output point
  // accumulates its field contributions in the same sequence.
  for (int q = 0; q < in.m; ++q) {
    const double* __restrict f =
        in.fields[static_cast<std::size_t>(q)].data();
    for (int k = 0; k < n; ++k) {
      const int kp = (k + 1) % n, km = (k - 1 + n) % n;
      for (int j = 0; j < n; ++j) {
        const int jp = (j + 1) % n, jm = (j - 1 + n) % n;
        const double* fr = f + idx3(0, j, k, n);
        const double* fjp = f + idx3(0, jp, k, n);
        const double* fjm = f + idx3(0, jm, k, n);
        const double* fkp = f + idx3(0, j, kp, n);
        const double* fkm = f + idx3(0, j, km, n);
        double* orow = o + idx3(0, j, k, n);
        // Peeled periodic boundary columns, then the branch-free interior.
        orow[0] += fr[1] + fr[n - 1] + fjp[0] + fjm[0] + fkp[0] + fkm[0] -
                   6.0 * fr[0];
        if (n > 1) {
          orow[n - 1] += fr[0] + fr[n - 2] + fjp[n - 1] + fjm[n - 1] +
                         fkp[n - 1] + fkm[n - 1] - 6.0 * fr[n - 1];
          // Branch-free interior i in [1, n-1), centered on element 1.
          ops.stencil7_interior(n - 2, fr + 1, fjp + 1, fjm + 1, fkp + 1,
                                fkm + 1, orow + 1);
        }
      }
    }
  }
}

void laplace_sum_block_engine(const singlenode::BlockFields& in,
                              std::vector<double>& out) {
  const int n = in.n;
  const int m = in.m;
  out.assign(static_cast<std::size_t>(n) * n * n, 0.0);
  const double* __restrict d = in.data.data();
  double* __restrict o = out.data();
  const std::ptrdiff_t mi = m;  // i step in the block layout
  for (int k = 0; k < n; ++k) {
    const int kp = (k + 1) % n, km = (k - 1 + n) % n;
    for (int j = 0; j < n; ++j) {
      const int jp = (j + 1) % n, jm = (j - 1 + n) % n;
      const double* c = d + static_cast<std::size_t>(m) * idx3(0, j, k, n);
      const double* no = d + static_cast<std::size_t>(m) * idx3(0, jp, k, n);
      const double* s = d + static_cast<std::size_t>(m) * idx3(0, jm, k, n);
      const double* up = d + static_cast<std::size_t>(m) * idx3(0, j, kp, n);
      const double* dn = d + static_cast<std::size_t>(m) * idx3(0, j, km, n);
      double* orow = o + idx3(0, j, k, n);
      for (int i = 0; i < n; ++i) {
        // East/west wrap via peeled offsets; all seven neighbour runs are
        // contiguous m-vectors walked by one sequential accumulator (the
        // seed's q order — lane-splitting would reassociate the sum).
        const double* e = c + (i + 1 == n ? (1 - n) * mi : mi);
        const double* w = c + (i == 0 ? (n - 1) * mi : -mi);
        double acc = 0.0;
        for (int q = 0; q < m; ++q) {
          acc += e[q] + w[q] + no[q] + s[q] + up[q] + dn[q] - 6.0 * c[q];
        }
        orow[i] = acc;
        c += mi;
        no += mi;
        s += mi;
        up += mi;
        dn += mi;
      }
    }
  }
}

}  // namespace agcm::kernels
