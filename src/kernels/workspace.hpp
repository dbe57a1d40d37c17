// Per-rank kernel-engine scratch for the dynamics and physics hot loops,
// reached through `util::rank_local<KernelWorkspace>()` (util/exec_local.hpp)
// so it stays per-rank even when many rank fibers share one worker thread.
// After the first step at a given local shape the advection and
// column-physics paths allocate nothing (tests/test_kernel_alloc.cpp, also
// under ASan+UBSan in CI).
//
// Lifetime rules (docs/kernels.md):
//   * The flux arrays and the tracer-update set are reshaped only when the
//     requested shape differs from the cached one; references returned by
//     the accessors stay valid until the next call to the SAME accessor
//     with a different shape. With the steady per-rank shapes of a model
//     run that means allocation happens on the first step only.
//   * `column` admits one live borrow per rank: the column engine takes
//     one borrow per column and carves its emissivity table and
//     tridiagonal bands out of it.
#pragma once

#include <span>

#include "grid/array3d.hpp"
#include "util/exec_local.hpp"

namespace agcm::kernels {

struct KernelWorkspace {
  /// Zonal / meridional mass-flux scratch for the advection engine
  /// (interior ni x nj x nk, ghost 1). Contents are unspecified on entry.
  grid::Array3D<double>& flux_x(int ni, int nj, int nk);
  grid::Array3D<double>& flux_y(int ni, int nj, int nk);

  /// `count` ghost-free update fields of the given interior shape (the
  /// seed path's per-call `updated` vector). Contents unspecified.
  std::span<grid::Array3D<double>> tracer_updates(std::size_t count, int ni,
                                                  int nj, int nk);

  /// Tridiagonal bands, pivot scratch and emissivity tables.
  util::GrowBuffer<double> column;

 private:
  grid::Array3D<double> flux_x_;
  grid::Array3D<double> flux_y_;
  util::GrowBuffer<grid::Array3D<double>> updates_;
};

}  // namespace agcm::kernels
