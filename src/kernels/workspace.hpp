// Per-rank kernel-engine scratch for the dynamics and physics hot loops,
// reached through `util::rank_local<KernelWorkspace>()` (util/exec_local.hpp)
// so it stays per-rank even when many rank fibers share one worker thread.
// Every buffer is growth-only: after the first step at a given local shape
// the advection and column-physics paths allocate nothing
// (tests/test_kernel_alloc.cpp, also under ASan+UBSan in CI).
//
// Lifetime rules (docs/kernels.md):
//   * `advection` holds only O(ni) rows: the engine streams each k-slab
//     row by row, so one borrow per engine call covers one fx row, two fy
//     rows and two update rows per tracer. Nothing in it outlives the call.
//   * `column` admits one live borrow per rank: the column engine takes
//     one borrow per call of physics::step_columns and carves its lane
//     panel (one profile of one batch of columns, level-major), emissivity
//     table and tridiagonal pivots out of it. Each batch reuses the panel;
//     nothing in it outlives the call.
#pragma once

#include "util/aligned.hpp"
#include "util/exec_local.hpp"

namespace agcm::kernels {

struct KernelWorkspace {
  /// Row scratch of the advection engine (kernels/advection_kernels.cpp).
  util::GrowBuffer<double, util::AlignedAllocator<double, 64>> advection;

  /// The column engine's lane panel, emissivity table and Thomas pivots.
  util::GrowBuffer<double, util::AlignedAllocator<double, 64>> column;
};

}  // namespace agcm::kernels
