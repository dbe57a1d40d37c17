// The "pointwise vector-multiply" kernel proposed in Section 3.4.
//
// The paper observes that much of the AGCM's local computation has the form
//   C(i,j) = A(i,j,s) * B(i)          (two-dimensional nested loop)
// which is not a BLAS operation, and proposes an optimized routine that
// recursively computes (equation (4)):
//   a (.) b = { a1*b1, a2*b2, ..., am*bm, a_{m+1}*b1, ... , an*bm }
// i.e. elementwise multiply of a length-n vector by a length-m vector
// cyclically extended, with n divisible by m.
//
// Three implementations:
//   * pointwise_multiply_naive    — modulo arithmetic per element (what a
//     straightforward loop nest compiles to),
//   * pointwise_multiply_tiled    — the paper's recursive/tiled form: an
//     outer loop over n/m panels, the short b vector staying cache-hot,
//   * pointwise_multiply_unrolled — tiled with 4-way manual unrolling (the
//     paper's "enforcing loop-unrolling on some large loops").
// All three produce identical results.
#pragma once

#include <span>

namespace agcm::singlenode {

/// out[i] = a[i] * b[i % m]; requires a.size() % b.size() == 0 and
/// out.size() == a.size().
void pointwise_multiply_naive(std::span<const double> a,
                              std::span<const double> b,
                              std::span<double> out);

void pointwise_multiply_tiled(std::span<const double> a,
                              std::span<const double> b,
                              std::span<double> out);

void pointwise_multiply_unrolled(std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> out);

/// Tiled form with the per-panel multiply routed through the SIMD dispatch
/// table (kernels/simd/dispatch.hpp). Bitwise identical to the three
/// scalar forms on every tier (independent per-point multiplies, no FMA).
void pointwise_multiply_dispatch(std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> out);

/// Flops of one evaluation (n multiplies).
double pointwise_multiply_flops(std::size_t n);

}  // namespace agcm::singlenode
