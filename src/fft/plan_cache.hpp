// Process-wide FFT plan cache: one immutable FftPlan per transform length,
// shared by every rank of every concurrently running Machine.
//
// Plan construction is deterministic (stage tables and twiddle factors are
// pure functions of n), so a shared plan is bit-identical to a fresh one,
// and FftPlan holds no mutable state, so one instance serves concurrent
// transforms (both pinned in tests/test_fft.cpp). This is the only plan
// cache: users look a plan up once (filter construction, partitioned
// kernel build) and hold the shared_ptr, so the warm transform path never
// locks. A campaign cell that outlives a clear_plan_cache() keeps its
// plans alive through its own references.
//
// Participates in util::SharedCaches: when the process-wide toggle is off,
// shared_plan() builds an unshared plan (the historical cold path).
#pragma once

#include <memory>

#include "fft/fft.hpp"

namespace agcm::fft {

/// The shared plan for length n; built on first request under a mutex,
/// immutable and never evicted (until clear_plan_cache) thereafter.
/// With util::SharedCaches disabled, returns a fresh unshared plan.
std::shared_ptr<const FftPlan> shared_plan(int n);

/// Drops all cached plans (outstanding references stay valid). Wired into
/// util::SharedCaches::clear_all().
void clear_plan_cache();

}  // namespace agcm::fft
