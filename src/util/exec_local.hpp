// Per-rank local storage: the one scratch idiom of the codebase.
//
// The original simnet ran one host thread per virtual rank, so every
// library that needed per-rank scratch (FFT buffers, kernel flux arrays,
// filter exchange-size vectors) kept it in thread-local storage and the
// equivalence was exact. The fiber scheduler breaks that equivalence: many
// rank fibers share one worker thread, and a fiber that parks inside a
// blocking recv while holding a workspace borrow must not see another
// fiber's hands in the same buffers when it resumes — possibly on a
// *different* worker thread.
//
// An `ExecSlot` is the per-rank handle that restores the old contract
// explicitly. Each rank of an SPMD run owns exactly one slot for the run's
// lifetime (the fiber scheduler keeps it on the fiber; the thread backend
// keeps it on the rank thread), and the running backend *installs* it
// around every slice of rank code it executes. Library code never touches
// the slot directly; it names a plain struct of growth-only buffers and
// asks for the rank's instance:
//
//     struct FooScratch { util::GrowBuffer<double> line; };
//     std::span<double> s = util::rank_local<FooScratch>().line.take(n);
//
// `rank_local<T>()` returns the installed slot's T — lazily
// default-constructed and owned until the slot dies at the end of the run,
// so workspace lifetime per rank is identical under both backends. Callers
// off the virtual machine (unit tests, tools, benches driving kernels
// directly) get the instance in their host thread's fallback slot. A
// `GrowBuffer` reallocates only when a request exceeds its high-water mark,
// so the "allocation-free after warm-up" contract holds: the first request
// at the steady size *is* the warm-up.
//
// Borrow rule: a span from `take()` stays valid until the next `take()` on
// the same buffer. Code that needs two live borrows uses two buffers.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace agcm::util {

namespace detail {
/// Process-wide monotone key allocator; one key per distinct T ever used
/// with ExecSlot::get.
int allocate_exec_local_key();

template <typename T>
int exec_local_key() {
  static const int key = allocate_exec_local_key();
  return key;
}
}  // namespace detail

/// One rank's local storage: a type-indexed table of lazily constructed
/// singletons. Not thread-safe by itself — a slot is only ever touched by
/// the one rank that owns it (the backend guarantees a slot is installed
/// on at most one host thread at a time).
class ExecSlot {
 public:
  ExecSlot() = default;
  ExecSlot(const ExecSlot&) = delete;
  ExecSlot& operator=(const ExecSlot&) = delete;
  ~ExecSlot();

  /// The slot-local instance of T, default-constructed on first use.
  template <typename T>
  T& get() {
    const auto key = static_cast<std::size_t>(detail::exec_local_key<T>());
    if (entries_.size() <= key) entries_.resize(key + 1);
    Entry& e = entries_[key];
    if (e.ptr == nullptr) {
      e.ptr = new T();
      e.dtor = [](void* p) { delete static_cast<T*>(p); };
    }
    return *static_cast<T*>(e.ptr);
  }

  /// The slot installed on the calling host thread, or nullptr when the
  /// caller runs outside any SPMD backend.
  static ExecSlot* current() noexcept;

  /// The installed slot, or the calling host thread's fallback slot when
  /// none is installed. Never null.
  static ExecSlot& active() noexcept;

  /// RAII installer used by the simnet backends: the thread backend holds
  /// one Scope for the whole rank program; the fiber scheduler installs the
  /// fiber's slot before every resume and restores on every park.
  class Scope {
   public:
    explicit Scope(ExecSlot* slot) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    ExecSlot* previous_;
  };

 private:
  struct Entry {
    void* ptr = nullptr;
    void (*dtor)(void*) = nullptr;
  };
  std::vector<Entry> entries_;
};

/// The executing rank's instance of T (see the file comment).
template <typename T>
T& rank_local() {
  return ExecSlot::active().get<T>();
}

/// Growth-only scratch: `take(n)` hands out the first n elements, growing
/// (and allocating) only when n exceeds every earlier request. Contents
/// are unspecified on entry.
template <typename T, typename Alloc = std::allocator<T>>
class GrowBuffer {
 public:
  std::span<T> take(std::size_t n) {
    if (data_.size() < n) data_.resize(n);
    return {data_.data(), n};
  }

 private:
  std::vector<T, Alloc> data_;
};

}  // namespace agcm::util
