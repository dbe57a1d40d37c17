#include "util/exec_local.hpp"

#include <atomic>
#include <utility>

namespace agcm::util {

namespace detail {
int allocate_exec_local_key() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

namespace {
thread_local ExecSlot* t_current_slot = nullptr;
thread_local ExecSlot t_fallback_slot;  // off-machine callers
}  // namespace

ExecSlot::~ExecSlot() {
  // Reverse construction order, matching the destruction order nested
  // thread_locals would have had.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->ptr != nullptr) it->dtor(it->ptr);
  }
}

ExecSlot* ExecSlot::current() noexcept { return t_current_slot; }

ExecSlot& ExecSlot::active() noexcept {
  return t_current_slot != nullptr ? *t_current_slot : t_fallback_slot;
}

ExecSlot::Scope::Scope(ExecSlot* slot) noexcept
    : previous_(std::exchange(t_current_slot, slot)) {}

ExecSlot::Scope::~Scope() { t_current_slot = previous_; }

}  // namespace agcm::util
