// Bit-references for the tracer advection engine. Neither runs in a model:
// dynamics::advect_tracers_optimized (kernels::advect_tracers_engine) does
// the host work for both of the paper's variants.
//   * advect_tracers_baseline — the paper's pre-optimization loop, one pass
//     per tracer recomputing the mass fluxes (Section 3.4). Kept for the
//     bit-identity test and bench_advection_opt's host comparison.
//   * advect_tracers_optimized_seed_ref — the optimized path exactly as it
//     stood before the kernel engine, preserved verbatim (per-element
//     Array3D::operator() access and per-call scratch allocation included)
//     so the engine bench and the bit-exactness tests always compare
//     against the true seed path (the same pattern as fft/recursive_ref.hpp
//     for the FFT engine).
//
// Both produce fields bitwise identical to the engine and return their
// variant's advection_cost() (docs/kernels.md).
#pragma once

#include "dynamics/advection.hpp"

namespace agcm::dynamics {

KernelCost advect_tracers_baseline(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt);

KernelCost advect_tracers_optimized_seed_ref(
    const grid::LatLonGrid& grid, const grid::LocalBox& box,
    const Metrics& metrics, const grid::Array3D<double>& h_old,
    const grid::Array3D<double>& h_new, const grid::Array3D<double>& u,
    const grid::Array3D<double>& v,
    std::span<grid::Array3D<double>* const> tracers, double dt);

}  // namespace agcm::dynamics
