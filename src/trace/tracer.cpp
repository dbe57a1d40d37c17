#include "trace/tracer.hpp"

#include <algorithm>

namespace agcm::trace {

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() {
  ranks_.resize(static_cast<std::size_t>(kMaxRanks));
}

void Tracer::begin_run(int nranks) {
  nranks_ = std::min(nranks, kMaxRanks);
  for (auto& buf : ranks_) {
    if (buf) {
      buf->events.clear();
      buf->open.clear();
    }
  }
}

Tracer::RankBuffer* Tracer::buffer(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return nullptr;
  auto& slot = ranks_[static_cast<std::size_t>(rank)];
  // Lazy allocation is safe: only the owning rank thread touches its slot.
  if (!slot) slot = std::make_unique<RankBuffer>();
  return slot.get();
}

const Tracer::RankBuffer* Tracer::buffer(int rank) const {
  if (rank < 0 || rank >= kMaxRanks) return nullptr;
  return ranks_[static_cast<std::size_t>(rank)].get();
}

void Tracer::begin_span(int rank, std::string_view name, double t,
                        const TimeSplit& at) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf) return;
  Event event;
  event.name.assign(name);
  event.t = t;
  event.split = at;  // the begin snapshot until end_span takes the delta
  event.kind = EventKind::kSpan;
  event.open = true;
  event.depth = static_cast<std::int32_t>(buf->open.size());
  buf->open.push_back(buf->events.size());
  buf->events.push_back(std::move(event));
}

void Tracer::end_span(int rank, double t, const TimeSplit& at) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf || buf->open.empty()) return;  // unmatched end: drop
  Event& span = buf->events[buf->open.back()];
  buf->open.pop_back();
  span.end = t;
  span.split = at - span.split;
  span.open = false;
}

void Tracer::instant(int rank, std::string_view name, double t) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf) return;
  Event event;
  event.name.assign(name);
  event.t = t;
  event.kind = EventKind::kInstant;
  event.depth = static_cast<std::int32_t>(buf->open.size());
  buf->events.push_back(std::move(event));
}

void Tracer::counter(int rank, std::string_view name, double t, double value) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf) return;
  Event event;
  event.name.assign(name);
  event.t = t;
  event.value = value;
  event.kind = EventKind::kCounter;
  event.depth = static_cast<std::int32_t>(buf->open.size());
  buf->events.push_back(std::move(event));
}

const std::vector<Event>& Tracer::events(int rank) const {
  static const std::vector<Event> kEmpty;
  const RankBuffer* buf = buffer(rank);
  return buf ? buf->events : kEmpty;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  for (int rank = 0; rank < kMaxRanks; ++rank) {
    for (const Event& e : events(rank)) {
      if (e.kind != EventKind::kSpan || e.open) continue;
      out.push_back({e.name, rank, e.depth, e.t, e.end, e.split});
    }
  }
  return out;
}

std::size_t Tracer::total_events() const {
  std::size_t n = 0;
  for (int rank = 0; rank < kMaxRanks; ++rank) {
    const RankBuffer* buf = buffer(rank);
    if (buf) n += buf->events.size();
  }
  return n;
}

}  // namespace agcm::trace
