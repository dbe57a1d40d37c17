#include "trace/export.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace agcm::trace {

std::vector<PhaseStats> aggregate_phases(const Tracer& tracer) {
  const std::vector<SpanRecord> all = tracer.spans();

  struct Accumulator {
    std::uint64_t calls = 0;
    TimeSplit split;
    std::map<int, double> per_rank;  ///< rank -> summed duration
  };
  std::map<std::string, Accumulator> by_name;
  int max_rank = -1;
  for (const SpanRecord& span : all) {
    Accumulator& acc = by_name[span.name];
    acc.calls += 1;
    acc.split.compute += span.split.compute;
    acc.split.overhead += span.split.overhead;
    acc.split.wait += span.split.wait;
    acc.per_rank[span.rank] += span.duration();
    max_rank = std::max(max_rank, span.rank);
  }
  // The rank universe: prefer the run's declared size so ranks that never
  // entered a phase count as zero load in the imbalance.
  const int nranks = std::max(tracer.nranks(), max_rank + 1);

  std::vector<PhaseStats> out;
  out.reserve(by_name.size());
  for (const auto& [name, acc] : by_name) {
    PhaseStats stats;
    stats.name = name;
    stats.calls = acc.calls;
    stats.ranks_touched = static_cast<int>(acc.per_rank.size());
    stats.split = acc.split;

    std::vector<double> loads(static_cast<std::size_t>(std::max(nranks, 1)),
                              0.0);
    for (const auto& [rank, seconds] : acc.per_rank) {
      if (rank >= 0 && rank < static_cast<int>(loads.size()))
        loads[static_cast<std::size_t>(rank)] = seconds;
      stats.total_sec += seconds;
    }
    stats.mean_rank_sec = mean(loads);
    stats.max_rank_sec = max_value(loads);
    stats.imbalance = load_imbalance(loads);
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(), [](const PhaseStats& a,
                                       const PhaseStats& b) {
    return a.total_sec != b.total_sec ? a.total_sec > b.total_sec
                                      : a.name < b.name;
  });
  return out;
}

Table phase_table(const std::vector<PhaseStats>& phases,
                  const std::string& title) {
  Table table(title, {"Phase", "Calls", "Ranks", "Mean/rank s", "Max/rank s",
                      "Compute s", "Overhead s", "Wait s", "Imbalance"});
  for (const PhaseStats& p : phases) {
    table.add_row({p.name, std::to_string(p.calls),
                   std::to_string(p.ranks_touched),
                   Table::num(p.mean_rank_sec, 6), Table::num(p.max_rank_sec, 6),
                   Table::num(p.split.compute, 6),
                   Table::num(p.split.overhead, 6), Table::num(p.split.wait, 6),
                   Table::pct(p.imbalance, 1)});
  }
  return table;
}

JsonValue phases_json(const std::vector<PhaseStats>& phases) {
  JsonValue out = JsonValue::array();
  for (const PhaseStats& p : phases) {
    JsonValue entry = JsonValue::object();
    entry.set("name", p.name);
    entry.set("calls", static_cast<std::uint64_t>(p.calls));
    entry.set("ranks", p.ranks_touched);
    entry.set("total_sec", p.total_sec);
    entry.set("mean_rank_sec", p.mean_rank_sec);
    entry.set("max_rank_sec", p.max_rank_sec);
    entry.set("compute_sec", p.split.compute);
    entry.set("overhead_sec", p.split.overhead);
    entry.set("wait_sec", p.split.wait);
    entry.set("imbalance", p.imbalance);
    out.push_back(std::move(entry));
  }
  return out;
}

namespace {

constexpr double kSecToTraceUs = 1.0e6;  ///< virtual seconds -> trace "us"
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
constexpr std::string_view kFooter =
    "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"clock\": "
    "\"virtual\", \"note\": \"timestamps are deterministic virtual seconds "
    "(shown as us), not host time\"}}\n";

/// Starts the next element of the "traceEvents" array.
void next_element(std::string& out, std::size_t& count) {
  out += count++ == 0 ? "\n  " : ",\n  ";
}

/// Document header plus the metadata naming the process and each rank.
void append_header(std::string& out, std::size_t& count, int nranks) {
  out += "{\"traceEvents\": [";
  next_element(out, count);
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"virtual multicomputer\"}}";
  for (int rank = 0; rank < std::max(nranks, 1); ++rank) {
    const std::string r = std::to_string(rank);
    next_element(out, count);
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" + r +
           ",\"args\":{\"name\":\"rank " + r + "\"}}";
  }
}

/// Appends `e`, recorded by `rank`, as one Chrome-trace event; an open span
/// appends nothing.
void append_event(std::string& out, std::size_t& count, const Event& e,
                  int rank) {
  if (e.open) return;
  const auto num = [&out](double v) { out += JsonValue::number_repr(v); };
  next_element(out, count);
  out += "{\"name\":";
  out += JsonValue::quote(e.name);
  out += ",\"cat\":\"virtual\",\"ph\":";
  switch (e.kind) {
    case EventKind::kSpan: out += "\"X\""; break;
    // A thread-scoped instant.
    case EventKind::kInstant: out += "\"i\",\"s\":\"t\""; break;
    case EventKind::kCounter: out += "\"C\""; break;
  }
  out += ",\"ts\":";
  num(e.t * kSecToTraceUs);
  if (e.kind == EventKind::kSpan) {
    out += ",\"dur\":";
    num((e.end - e.t) * kSecToTraceUs);
  }
  out += ",\"pid\":0,\"tid\":";
  out += std::to_string(rank);
  if (e.kind == EventKind::kSpan) {
    out += ",\"args\":{\"compute_sec\":";
    num(e.split.compute);
    out += ",\"overhead_sec\":";
    num(e.split.overhead);
    out += ",\"wait_sec\":";
    num(e.split.wait);
    out += '}';
  } else if (e.kind == EventKind::kCounter) {
    out += ",\"args\":{\"value\":";
    num(e.value);
    out += '}';
  }
  out += '}';
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::string path, int nranks)
    : path_(std::move(path)), file_(std::fopen(path_.c_str(), "wb")) {
  if (!file_) throw DataError("cannot open '" + path_ + "' for writing");
  buffer_.reserve(kChunkBytes + 4096);
  append_header(buffer_, events_, nranks);
}

ChromeTraceWriter::~ChromeTraceWriter() {
  try {
    close();
  } catch (const DataError&) {
  }
}

void ChromeTraceWriter::append(const Tracer& tracer) {
  if (!file_) throw DataError("'" + path_ + "' is already closed");
  for (int rank = 0; rank < Tracer::kMaxRanks; ++rank) {
    for (const Event& e : tracer.events(rank)) {
      append_event(buffer_, events_, e, rank);
      if (buffer_.size() >= kChunkBytes) flush();
    }
  }
}

void ChromeTraceWriter::close() {
  if (!file_) return;
  buffer_ += kFooter;
  flush();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) throw DataError("failed writing '" + path_ + "'");
}

void ChromeTraceWriter::flush() {
  const std::size_t n = buffer_.size();
  const bool ok = std::fwrite(buffer_.data(), 1, n, file_) == n;
  buffer_.clear();
  if (!ok) {
    std::fclose(file_);
    file_ = nullptr;
    throw DataError("failed writing '" + path_ + "'");
  }
}

std::string chrome_trace_json(const Tracer& tracer) {
  std::string out;
  std::size_t count = 0;
  append_header(out, count, tracer.nranks());
  for (int rank = 0; rank < Tracer::kMaxRanks; ++rank)
    for (const Event& e : tracer.events(rank))
      append_event(out, count, e, rank);
  out += kFooter;
  return out;
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  ChromeTraceWriter writer(path, tracer.nranks());
  writer.append(tracer);
  writer.close();
}

std::string trace_csv(const Tracer& tracer) {
  std::string out =
      "rank,name,depth,begin_s,end_s,duration_s,compute_s,overhead_s,wait_s\n";
  for (const SpanRecord& span : tracer.spans()) {
    out += std::to_string(span.rank);
    out += ',';
    // Names are dotted identifiers; quote defensively anyway. CSV escaping
    // doubles embedded quotes (RFC 4180), so a name like say["x"] survives
    // a round-trip through spreadsheet tooling.
    out += '"';
    for (const char c : span.name) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    out += ',';
    out += std::to_string(span.depth);
    for (const double v : {span.begin, span.end, span.duration(),
                           span.split.compute, span.split.overhead,
                           span.split.wait}) {
      out += ',';
      out += JsonValue::number_repr(v);
    }
    out += '\n';
  }
  return out;
}

void write_trace_csv(const Tracer& tracer, const std::string& path) {
  write_text_file(path, trace_csv(tracer));
}

}  // namespace agcm::trace
