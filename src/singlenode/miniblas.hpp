// Mini-BLAS: the level-1 routines the paper substituted for hand-coded
// loops ("replacing some loops by Basic Linear Algebra Subroutines (BLAS)
// library calls for vector copying, scaling or saxpy operations"), each in
// a plain and a 4-way-unrolled variant so the benchmark can measure the
// gap the paper exploited.
#pragma once

#include <span>

namespace agcm::singlenode {

/// y = x.
void dcopy(std::span<const double> x, std::span<double> y);
void dcopy_unrolled(std::span<const double> x, std::span<double> y);

/// x = alpha * x.
void dscal(double alpha, std::span<double> x);
void dscal_unrolled(double alpha, std::span<double> x);

/// y = alpha * x + y.
void daxpy(double alpha, std::span<const double> x, std::span<double> y);
void daxpy_unrolled(double alpha, std::span<const double> x,
                    std::span<double> y);

/// dot(x, y).
double ddot(std::span<const double> x, std::span<const double> y);
double ddot_unrolled(std::span<const double> x, std::span<const double> y);

// --- SIMD-dispatched variant (kernels/simd/dispatch.hpp) ----------------

/// daxpy through the dispatch table, bitwise identical to daxpy and
/// daxpy_unrolled on every tier (an independent mul-then-add per point).
/// A dot product has no dispatched form: SIMD lanes would reassociate the
/// sum, and the frozen paths need the sequential ddot / ddot_strided order.
void daxpy_dispatch(double alpha, std::span<const double> x,
                    std::span<double> y);

// --- strided (BLAS inc-style) variants ----------------------------------
//
// The kernel engine's contribution to this file (docs/kernels.md): the
// same level-1 operations over strided element sequences, so the FilterBank
// convolution kernels (which walk the periodic line backwards) and the
// Thomas-solve recombination can be expressed as BLAS calls instead of
// hand-rolled index loops. `x` and `y` address element 0 of each logical
// vector; strides may be negative (BLAS convention, e.g. incy = -1 walks
// y[0], y[-1], ...). n == 0 is a no-op.

/// y[i*incy] = x[i*incx], i ascending; 4-way unrolled.
void dcopy_strided(std::size_t n, const double* x, std::ptrdiff_t incx,
                   double* y, std::ptrdiff_t incy);

/// y[i*incy] += alpha * x[i*incx], i ascending; 4-way unrolled.
void daxpy_strided(std::size_t n, double alpha, const double* x,
                   std::ptrdiff_t incx, double* y, std::ptrdiff_t incy);

/// Returns acc after acc += x[i*incx] * y[i*incy] for i = 0..n-1 in
/// ascending order with ONE sequential accumulator (no 4-lane splitting):
/// the products are added in exactly the order a scalar loop would, so a
/// caller may split one logical dot product into several ddot_strided
/// calls — threading `acc` through — and still get bitwise-identical sums
/// (the convolution kernels depend on this; docs/kernels.md).
double ddot_strided(std::size_t n, const double* x, std::ptrdiff_t incx,
                    const double* y, std::ptrdiff_t incy, double acc = 0.0);

}  // namespace agcm::singlenode
