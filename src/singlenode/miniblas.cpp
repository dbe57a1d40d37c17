#include "singlenode/miniblas.hpp"

#include <algorithm>

#include "kernels/simd/dispatch.hpp"
#include "util/error.hpp"

namespace agcm::singlenode {

void dcopy(std::span<const double> x, std::span<double> y) {
  AGCM_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i];
}

void dcopy_unrolled(std::span<const double> x, std::span<double> y) {
  AGCM_ASSERT(x.size() == y.size());
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    y[i] = x[i];
    y[i + 1] = x[i + 1];
    y[i + 2] = x[i + 2];
    y[i + 3] = x[i + 3];
  }
  for (; i < x.size(); ++i) y[i] = x[i];
}

void dscal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

void dscal_unrolled(double alpha, std::span<double> x) {
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    x[i] *= alpha;
    x[i + 1] *= alpha;
    x[i + 2] *= alpha;
    x[i + 3] *= alpha;
  }
  for (; i < x.size(); ++i) x[i] *= alpha;
}

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  AGCM_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void daxpy_unrolled(double alpha, std::span<const double> x,
                    std::span<double> y) {
  AGCM_ASSERT(x.size() == y.size());
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (; i < x.size(); ++i) y[i] += alpha * x[i];
}

double ddot(std::span<const double> x, std::span<const double> y) {
  AGCM_ASSERT(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double ddot_unrolled(std::span<const double> x, std::span<const double> y) {
  AGCM_ASSERT(x.size() == y.size());
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void daxpy_dispatch(double alpha, std::span<const double> x,
                    std::span<double> y) {
  AGCM_ASSERT(x.size() == y.size());
  simd::ops().daxpy(x.size(), alpha, x.data(), y.data());
}

void dcopy_strided(std::size_t n, const double* x, std::ptrdiff_t incx,
                   double* y, std::ptrdiff_t incy) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto di = static_cast<std::ptrdiff_t>(i);
    y[di * incy] = x[di * incx];
    y[(di + 1) * incy] = x[(di + 1) * incx];
    y[(di + 2) * incy] = x[(di + 2) * incx];
    y[(di + 3) * incy] = x[(di + 3) * incx];
  }
  for (; i < n; ++i) {
    const auto di = static_cast<std::ptrdiff_t>(i);
    y[di * incy] = x[di * incx];
  }
}

void daxpy_strided(std::size_t n, double alpha, const double* x,
                   std::ptrdiff_t incx, double* y, std::ptrdiff_t incy) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto di = static_cast<std::ptrdiff_t>(i);
    y[di * incy] += alpha * x[di * incx];
    y[(di + 1) * incy] += alpha * x[(di + 1) * incx];
    y[(di + 2) * incy] += alpha * x[(di + 2) * incx];
    y[(di + 3) * incy] += alpha * x[(di + 3) * incx];
  }
  for (; i < n; ++i) {
    const auto di = static_cast<std::ptrdiff_t>(i);
    y[di * incy] += alpha * x[di * incx];
  }
}

double ddot_strided(std::size_t n, const double* x, std::ptrdiff_t incx,
                    const double* y, std::ptrdiff_t incy, double acc) {
  // Single sequential accumulator on purpose: splitting into lanes would
  // reassociate the sum and break the bitwise-continuation contract.
  // The 4-wide unroll only amortises loop overhead; the adds stay chained.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto di = static_cast<std::ptrdiff_t>(i);
    acc += x[di * incx] * y[di * incy];
    acc += x[(di + 1) * incx] * y[(di + 1) * incy];
    acc += x[(di + 2) * incx] * y[(di + 2) * incy];
    acc += x[(di + 3) * incx] * y[(di + 3) * incy];
  }
  for (; i < n; ++i) {
    const auto di = static_cast<std::ptrdiff_t>(i);
    acc += x[di * incx] * y[di * incy];
  }
  return acc;
}

}  // namespace agcm::singlenode
