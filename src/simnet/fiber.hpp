// M:N cooperative fiber scheduler for the virtual multicomputer.
//
// The thread-per-rank launcher (Machine's kThreads backend) parks one OS
// thread per virtual rank on a condition variable at every blocking recv.
// That caps useful machine sizes at a few dozen ranks: kernel context
// switches and futex wakeups dominate the host cost of every virtual
// message long before P reaches the paper's 240-node runs. This scheduler
// replaces the OS thread with a *fiber* — a ucontext stackful coroutine
// owning its own stack and per-rank ExecSlot — and runs P fibers on a
// fixed pool of W worker threads (W ~ hardware concurrency). A fiber
// yields only at virtual-time events that cannot proceed (today: a
// blocking recv on an empty channel — barriers and clock waits are built
// on recv — and an all-to-all rendezvous still waiting for a member);
// everything else runs straight through. Parking and waking a
// fiber is a user-space context switch, so thousands of ranks sweep at
// full host speed (bench/bench_simnet_sched.cpp gates the speedup,
// docs/simnet.md has the design).
//
// Determinism: the scheduler moves *host* execution around but never
// touches a virtual clock, and per-(src,tag) channel FIFO order is
// preserved by the mailbox exactly as under the thread backend — so
// virtual times are bit-identical between backends (gated by
// tests/test_simnet.cpp and the bench).
//
// Blocking protocol (the park/unpark handshake with simnet::Mailbox):
//   1. the fiber, holding the mailbox lock and finding its channel empty,
//      calls prepare_park() and publishes itself in the mailbox's waiter
//      slot;
//   2. it releases the lock and calls park(), which switches back to the
//      worker; the worker commits kParking -> kParked under the scheduler
//      mutex — or, if an unpark() raced in between, requeues the fiber
//      immediately (kUnparkedWhileParking). The fiber is never resumed
//      before it has fully switched off its stack;
//   3. a sender that pushes onto the awaited channel clears the waiter
//      and, after unlocking, calls unpark(), which moves a parked fiber to
//      the run queue.
//
// Deadlock detection replaces the thread backend's wall-clock recv
// timeout: when every live fiber is parked (no fiber running, run queue
// empty), no message can ever arrive — the scheduler declares the run
// deadlocked and wakes all parked fibers, whose blocked recvs then throw
// the same enriched CommError diagnostics as a thread-backend timeout,
// immediately instead of after 60 real seconds.
#pragma once

#include <cstddef>
#include <functional>

#if defined(__has_include)
#if __has_include(<ucontext.h>)
#define AGCM_SIMNET_HAS_FIBERS 1
#endif
#endif

#ifndef AGCM_SIMNET_HAS_FIBERS
#define AGCM_SIMNET_HAS_FIBERS 0
#endif

namespace agcm::util {
class ExecSlot;
}  // namespace agcm::util

namespace agcm::simnet {

class Fiber;
class FiberScheduler;

/// The fiber executing on the calling host thread, or nullptr when the
/// caller is a plain thread (thread backend, unit tests, tools). The
/// mailbox uses this to choose between the fiber park path and the
/// condition-variable wait.
Fiber* current_fiber() noexcept;

/// Stack size of every fiber: virtual memory, lazily committed, with one
/// guard page below it.
inline constexpr std::size_t kFiberStackBytes = std::size_t{512} * 1024;

#if AGCM_SIMNET_HAS_FIBERS

/// Runs `count` fibers of `body(index)` to completion on a fixed worker
/// pool, then rethrows the first exception any fiber threw (after all
/// fibers have finished — mirroring the thread backend's join-then-rethrow
/// contract). Each fiber owns a util::ExecSlot installed around every
/// slice it runs, so per-rank workspaces are migration-safe. `workers` <= 0
/// resolves to AGCM_SIMNET_WORKERS when set, else hardware_concurrency;
/// the pool never exceeds `count`.
void run_fibers(int count, const std::function<void(int)>& body, int workers);

/// Blocking-primitive interface used by simnet::Mailbox (see the protocol
/// in the header comment). All methods are implemented in fiber.cpp; the
/// class is opaque everywhere else.
class Fiber {
 public:
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  int index() const noexcept;

  /// Step 1 of parking: marks the fiber kParking. Call while holding the
  /// lock that also publishes the waiter pointer, so any waker that can
  /// see the waiter also sees the state.
  void prepare_park() noexcept;

  /// Step 2: switches to the worker; returns when unpark() (or the
  /// deadlock sweep) reschedules the fiber. Must not hold any lock.
  void park();

  /// Wakes a parking/parked fiber; no-op in any other state. Safe to call
  /// from any host thread.
  void unpark();

  /// True once the scheduler has declared the run deadlocked; a woken
  /// fiber whose recv still cannot proceed must abandon the wait.
  bool run_deadlocked() const noexcept;

 private:
  friend class FiberScheduler;
  Fiber();
  struct Impl;
  Impl* impl_;
};

#endif  // AGCM_SIMNET_HAS_FIBERS

}  // namespace agcm::simnet
