// Host-side throughput of the simnet transport: seed copy path vs the
// zero-copy pooled path (docs/transport.md).
//
// Two traffic patterns, each driven over a real 4-rank Network in a single
// host thread (sends are buffered, so all-sends-then-all-recvs needs no
// threads — the measurement isolates pack/copy/unpack cost from scheduler
// noise):
//
//  * halo      — the dynamics ghost exchange: i-strips east/west and
//                j-strips north/south on a 2x2 torus, every iteration.
//  * transpose — the filter row-transpose: each rank scatters per-
//                destination line chunks and gathers whole lines.
//
// The "legacy" path replicates the seed implementation verbatim: fresh
// std::vector staging, element-wise push_back packing, span send (copy into
// the wire buffer), recv copied out into another vector, element-wise
// unpack. The "pooled" path is the code the library now runs: strips packed
// once by memcpy runs straight into a pool-acquired wire buffer, the buffer
// moved into the network, and the received payload unpacked in place.
//
// Acceptance gates (exit code 1 on failure, recorded in the BENCH JSON):
//   halo_speedup >= 2.0, transpose_speedup >= 1.5.
// Both paths must also produce bit-identical field contents (checksummed).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "grid/array3d.hpp"
#include "grid/halo.hpp"
#include "simnet/machine.hpp"
#include "util/table.hpp"

namespace {

using agcm::Table;
using agcm::grid::Array3D;
using agcm::simnet::Buffer;
using agcm::simnet::MachineProfile;
using agcm::simnet::Network;
using agcm::simnet::RankContext;

constexpr int kRanks = 4;  // 2x2 torus
constexpr int kTagEast = 1, kTagWest = 2, kTagNorth = 3, kTagSouth = 4;
constexpr int kTagChunk = 7;

std::span<const std::byte> as_bytes(std::span<const double> v) {
  return std::as_bytes(v);
}

// --- halo pattern -----------------------------------------------------------

struct HaloWorld {
  // 2x2 torus: rank = row*2 + col; both directions periodic so every rank
  // moves the same traffic (this is a throughput pattern, not the physical
  // boundary condition).
  static int east(int r) { return (r / 2) * 2 + ((r % 2) + 1) % 2; }
  static int north(int r) { return ((r / 2 + 1) % 2) * 2 + r % 2; }

  explicit HaloWorld(int ni, int nj, int nk) {
    fields.reserve(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      fields.emplace_back(ni, nj, nk, /*ghost=*/1);
      auto raw = fields.back().raw();
      for (std::size_t x = 0; x < raw.size(); ++x)
        raw[x] = 0.25 * static_cast<double>(r + 1) +
                 1e-6 * static_cast<double>(x % 9973);
    }
  }

  double checksum() const {
    double sum = 0.0;
    for (const auto& f : fields)
      for (double v : f.raw()) sum += v;
    return sum;
  }

  std::vector<Array3D<double>> fields;
};

/// Seed implementation of the halo pattern: element-wise vector packing and
/// copy-in/copy-out transport (what exchange_halo did before the pooled
/// transport landed).
void halo_iteration_legacy(std::vector<RankContext*>& ctx, HaloWorld& w) {
  const int g = 1;
  for (int r = 0; r < kRanks; ++r) {
    Array3D<double>& f = w.fields[static_cast<std::size_t>(r)];
    auto pack_i = [&](int i_begin) {
      std::vector<double> buf;
      buf.reserve(static_cast<std::size_t>(g) *
                  static_cast<std::size_t>(f.nj()) *
                  static_cast<std::size_t>(f.nk()));
      for (int k = 0; k < f.nk(); ++k)
        for (int j = 0; j < f.nj(); ++j)
          for (int di = 0; di < g; ++di) buf.push_back(f.at(i_begin + di, j, k));
      return buf;
    };
    auto pack_j = [&](int j_begin) {
      std::vector<double> buf;
      buf.reserve(static_cast<std::size_t>(g) *
                  static_cast<std::size_t>(f.ni() + 2 * g) *
                  static_cast<std::size_t>(f.nk()));
      for (int k = 0; k < f.nk(); ++k)
        for (int dj = 0; dj < g; ++dj)
          for (int i = -g; i < f.ni() + g; ++i)
            buf.push_back(f.at(i, j_begin + dj, k));
      return buf;
    };
    const auto east_edge = pack_i(f.ni() - g);
    const auto west_edge = pack_i(0);
    const auto north_edge = pack_j(f.nj() - g);
    const auto south_edge = pack_j(0);
    ctx[static_cast<std::size_t>(r)]->send_bytes(HaloWorld::east(r), kTagEast,
                                                 as_bytes(east_edge));
    ctx[static_cast<std::size_t>(r)]->send_bytes(HaloWorld::east(r), kTagWest,
                                                 as_bytes(west_edge));
    ctx[static_cast<std::size_t>(r)]->send_bytes(HaloWorld::north(r), kTagNorth,
                                                 as_bytes(north_edge));
    ctx[static_cast<std::size_t>(r)]->send_bytes(HaloWorld::north(r), kTagSouth,
                                                 as_bytes(south_edge));
  }
  for (int r = 0; r < kRanks; ++r) {
    Array3D<double>& f = w.fields[static_cast<std::size_t>(r)];
    auto recv_into = [&](int src, int tag, std::vector<double>& out) {
      const Buffer bytes = ctx[static_cast<std::size_t>(r)]->recv_bytes(src, tag);
      out.resize(bytes.size() / sizeof(double));
      std::memcpy(out.data(), bytes.data(), bytes.size());
    };
    std::vector<double> from_west, from_east, from_south, from_north;
    recv_into(HaloWorld::east(r), kTagEast, from_west);
    recv_into(HaloWorld::east(r), kTagWest, from_east);
    recv_into(HaloWorld::north(r), kTagNorth, from_south);
    recv_into(HaloWorld::north(r), kTagSouth, from_north);
    auto unpack_i = [&](int i_begin, std::span<const double> buf) {
      std::size_t pos = 0;
      for (int k = 0; k < f.nk(); ++k)
        for (int j = 0; j < f.nj(); ++j)
          for (int di = 0; di < g; ++di) f.at(i_begin + di, j, k) = buf[pos++];
    };
    auto unpack_j = [&](int j_begin, std::span<const double> buf) {
      std::size_t pos = 0;
      for (int k = 0; k < f.nk(); ++k)
        for (int dj = 0; dj < g; ++dj)
          for (int i = -g; i < f.ni() + g; ++i)
            f.at(i, j_begin + dj, k) = buf[pos++];
    };
    unpack_i(-g, from_west);
    unpack_i(f.ni(), from_east);
    unpack_j(-g, from_south);
    unpack_j(f.nj(), from_north);
  }
}

/// Pooled zero-copy halo pattern: the library's strip programs pack straight
/// into acquired wire buffers; received payloads are unpacked in place.
void halo_iteration_pooled(std::vector<RankContext*>& ctx, HaloWorld& w) {
  using agcm::grid::i_strip_elems;
  using agcm::grid::j_strip_elems;
  const int g = 1;
  for (int r = 0; r < kRanks; ++r) {
    Array3D<double>& f = w.fields[static_cast<std::size_t>(r)];
    RankContext& c = *ctx[static_cast<std::size_t>(r)];
    const std::size_t ib = i_strip_elems(f, g) * sizeof(double);
    const std::size_t jb = j_strip_elems(f, g, g) * sizeof(double);
    auto send_i = [&](int i_begin, int dst, int tag) {
      Buffer buf = c.acquire_buffer(ib);
      agcm::grid::pack_i_strip(
          f, i_begin, g,
          {reinterpret_cast<double*>(buf.data()), ib / sizeof(double)});
      c.send_bytes(dst, tag, std::move(buf));
    };
    auto send_j = [&](int j_begin, int dst, int tag) {
      Buffer buf = c.acquire_buffer(jb);
      agcm::grid::pack_j_strip(
          f, j_begin, g, g,
          {reinterpret_cast<double*>(buf.data()), jb / sizeof(double)});
      c.send_bytes(dst, tag, std::move(buf));
    };
    send_i(f.ni() - g, HaloWorld::east(r), kTagEast);
    send_i(0, HaloWorld::east(r), kTagWest);
    send_j(f.nj() - g, HaloWorld::north(r), kTagNorth);
    send_j(0, HaloWorld::north(r), kTagSouth);
  }
  for (int r = 0; r < kRanks; ++r) {
    Array3D<double>& f = w.fields[static_cast<std::size_t>(r)];
    RankContext& c = *ctx[static_cast<std::size_t>(r)];
    auto recv_i = [&](int src, int tag, int i_begin) {
      const Buffer bytes = c.recv_bytes(src, tag);
      agcm::grid::unpack_i_strip(
          f, i_begin, g,
          {reinterpret_cast<const double*>(bytes.data()),
           bytes.size() / sizeof(double)});
    };
    auto recv_j = [&](int src, int tag, int j_begin) {
      const Buffer bytes = c.recv_bytes(src, tag);
      agcm::grid::unpack_j_strip(
          f, j_begin, g, g,
          {reinterpret_cast<const double*>(bytes.data()),
           bytes.size() / sizeof(double)});
    };
    recv_i(HaloWorld::east(r), kTagEast, -g);
    recv_i(HaloWorld::east(r), kTagWest, f.ni());
    recv_j(HaloWorld::north(r), kTagNorth, -g);
    recv_j(HaloWorld::north(r), kTagSouth, f.nj());
  }
}

// --- transpose pattern ------------------------------------------------------

struct TransposeWorld {
  // Each rank holds `nlines` chunk rows of width `ni`; line q belongs to
  // rank q % kRanks after the transpose (the RowTransposePlan convention).
  TransposeWorld(int nlines_, int ni_)
      : nlines(nlines_), ni(ni_), nlon(ni_ * kRanks) {
    chunks.resize(static_cast<std::size_t>(kRanks));
    full.resize(static_cast<std::size_t>(kRanks));
    for (int r = 0; r < kRanks; ++r) {
      auto& c = chunks[static_cast<std::size_t>(r)];
      c.resize(static_cast<std::size_t>(nlines) * static_cast<std::size_t>(ni));
      for (std::size_t x = 0; x < c.size(); ++x)
        c[x] = static_cast<double>(r + 1) + 1e-7 * static_cast<double>(x);
      full[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(nlines / kRanks) *
              static_cast<std::size_t>(nlon),
          0.0);
    }
  }

  double checksum() const {
    double sum = 0.0;
    for (const auto& f : full)
      for (double v : f) sum += v;
    return sum;
  }

  int nlines, ni, nlon;
  std::vector<std::vector<double>> chunks;  ///< per rank, nlines x ni
  std::vector<std::vector<double>> full;    ///< per rank, owned lines x nlon
};

/// Seed transpose: staging send vector built with insert, per-destination
/// span sends (copied into the wire), receive copied out into a vector,
/// then assembled into whole lines — the historical alltoallv data path.
void transpose_iteration_legacy(std::vector<RankContext*>& ctx,
                                TransposeWorld& w) {
  const auto ni = static_cast<std::size_t>(w.ni);
  const std::size_t owned = static_cast<std::size_t>(w.nlines / kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto& chunks = w.chunks[static_cast<std::size_t>(r)];
    for (int d = 0; d < kRanks; ++d) {
      std::vector<double> send_buf;
      send_buf.reserve(owned * ni);
      for (std::size_t q = static_cast<std::size_t>(d);
           q < static_cast<std::size_t>(w.nlines);
           q += static_cast<std::size_t>(kRanks)) {
        send_buf.insert(send_buf.end(), chunks.begin() + static_cast<std::ptrdiff_t>(q * ni),
                        chunks.begin() + static_cast<std::ptrdiff_t>((q + 1) * ni));
      }
      ctx[static_cast<std::size_t>(r)]->send_bytes(d, kTagChunk,
                                                   as_bytes(send_buf));
    }
  }
  for (int r = 0; r < kRanks; ++r) {
    auto& full = w.full[static_cast<std::size_t>(r)];
    for (int s = 0; s < kRanks; ++s) {
      const Buffer bytes = ctx[static_cast<std::size_t>(r)]->recv_bytes(s, kTagChunk);
      std::vector<double> recv_buf(bytes.size() / sizeof(double));
      std::memcpy(recv_buf.data(), bytes.data(), bytes.size());
      for (std::size_t p = 0; p < owned; ++p) {
        std::copy(recv_buf.begin() + static_cast<std::ptrdiff_t>(p * ni),
                  recv_buf.begin() + static_cast<std::ptrdiff_t>((p + 1) * ni),
                  full.begin() + static_cast<std::ptrdiff_t>(
                                     p * static_cast<std::size_t>(w.nlon) +
                                     static_cast<std::size_t>(s) * ni));
      }
    }
  }
}

/// Pooled transpose: per-destination chunks packed straight into the wire
/// buffer; received slices scattered in place into the whole-line buffer.
void transpose_iteration_pooled(std::vector<RankContext*>& ctx,
                                TransposeWorld& w) {
  const auto ni = static_cast<std::size_t>(w.ni);
  const std::size_t owned = static_cast<std::size_t>(w.nlines / kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto& chunks = w.chunks[static_cast<std::size_t>(r)];
    RankContext& c = *ctx[static_cast<std::size_t>(r)];
    for (int d = 0; d < kRanks; ++d) {
      Buffer buf = c.acquire_buffer(owned * ni * sizeof(double));
      double* out = reinterpret_cast<double*>(buf.data());
      for (std::size_t q = static_cast<std::size_t>(d);
           q < static_cast<std::size_t>(w.nlines);
           q += static_cast<std::size_t>(kRanks)) {
        std::memcpy(out, chunks.data() + q * ni, ni * sizeof(double));
        out += ni;
      }
      c.send_bytes(d, kTagChunk, std::move(buf));
    }
  }
  for (int r = 0; r < kRanks; ++r) {
    auto& full = w.full[static_cast<std::size_t>(r)];
    RankContext& c = *ctx[static_cast<std::size_t>(r)];
    for (int s = 0; s < kRanks; ++s) {
      const Buffer bytes = c.recv_bytes(s, kTagChunk);
      const double* in = reinterpret_cast<const double*>(bytes.data());
      for (std::size_t p = 0; p < owned; ++p) {
        std::memcpy(full.data() + p * static_cast<std::size_t>(w.nlon) +
                        static_cast<std::size_t>(s) * ni,
                    in + p * ni, ni * sizeof(double));
      }
    }
  }
}

// --- driver -----------------------------------------------------------------

struct PatternResult {
  double seconds = 0.0;     ///< best timed block
  double mb_per_s = 0.0;    ///< per-block bytes / best block time
  double checksum = 0.0;
  std::uint64_t bytes = 0;  ///< total across all timed blocks
  double block_mb = 0.0;    ///< bytes moved by one timed block, in MB
};

/// Times `trials` blocks of `reps` iterations and scores the pattern by its
/// *best* block (minimum wall time). Host throughput on a shared machine is
/// one-sided noise — scheduler preemption and cache pollution only ever slow
/// a block down — so the minimum is the low-variance estimator of the
/// machine's capability, and the CI speedup gates stay stable even when the
/// runner is busy. Byte counters accumulate across all timed blocks; the
/// throughput uses the per-block share.
template <typename World, typename Iteration>
PatternResult run_pattern(Iteration&& iteration, World& world, int warmup,
                          int reps, int trials) {
  Network network(kRanks);
  const MachineProfile profile = MachineProfile::ideal();
  std::vector<std::unique_ptr<RankContext>> storage;
  std::vector<RankContext*> ctx;
  for (int r = 0; r < kRanks; ++r) {
    storage.push_back(std::make_unique<RankContext>(r, network, profile));
    ctx.push_back(storage.back().get());
  }
  const auto bytes_sent = [&] {
    std::uint64_t sum = 0;
    for (const RankContext* c : ctx) sum += c->traffic().bytes_sent;
    return sum;
  };
  for (int i = 0; i < warmup; ++i) iteration(ctx, world);
  const std::uint64_t warm_bytes = bytes_sent();
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    const agcm::bench::Stopwatch sw;
    for (int i = 0; i < reps; ++i) iteration(ctx, world);
    const double sec = sw.seconds();
    if (t == 0 || sec < best) best = sec;
  }
  PatternResult out;
  out.seconds = best;
  out.bytes = bytes_sent() - warm_bytes;
  const double block_bytes =
      static_cast<double>(out.bytes) / static_cast<double>(trials);
  out.block_mb = block_bytes / 1.0e6;
  out.mb_per_s = out.block_mb / std::max(out.seconds, 1e-12);
  out.checksum = world.checksum();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = agcm::bench::BenchOptions::parse(argc, argv, "comm_transport");
  agcm::bench::JsonReport report(opts);
  agcm::bench::print_header(
      "Transport throughput: seed copy path vs zero-copy pooled path");

  constexpr int kWarmup = 10;
  constexpr int kReps = 60;
  constexpr int kTrials = 7;  // best-of-7 blocks of kReps iterations
  constexpr double kHaloGate = 2.0;
  constexpr double kTransposeGate = 1.5;

  // Halo pattern: longitude-dominant local block (the AGCM layout: longitude
  // is the long unit-stride axis), ghost width 1.
  PatternResult halo_legacy, halo_pooled;
  {
    HaloWorld w(512, 32, 8);
    halo_legacy = run_pattern(halo_iteration_legacy, w, kWarmup, kReps, kTrials);
  }
  {
    HaloWorld w(512, 32, 8);
    halo_pooled = run_pattern(halo_iteration_pooled, w, kWarmup, kReps, kTrials);
  }

  // Transpose pattern: 128 lines of nlon=512 per rank (the filter shape).
  PatternResult tr_legacy, tr_pooled;
  {
    TransposeWorld w(128, 128);
    tr_legacy = run_pattern(transpose_iteration_legacy, w, kWarmup, kReps, kTrials);
  }
  {
    TransposeWorld w(128, 128);
    tr_pooled = run_pattern(transpose_iteration_pooled, w, kWarmup, kReps, kTrials);
  }

  const double halo_speedup = halo_pooled.mb_per_s / halo_legacy.mb_per_s;
  const double tr_speedup = tr_pooled.mb_per_s / tr_legacy.mb_per_s;

  Table table("Host transport throughput (4 virtual ranks, single thread)",
              {"Pattern", "Path", "MB/block", "Best block ms", "MB/s",
               "Speedup"});
  auto add = [&](const char* pattern, const char* path, const PatternResult& r,
                 double speedup) {
    table.add_row({pattern, path, Table::num(r.block_mb, 1),
                   Table::num(r.seconds * 1e3, 2), Table::num(r.mb_per_s, 1),
                   speedup > 0.0 ? Table::num(speedup, 2) + "x" : "-"});
  };
  add("halo", "seed-copy", halo_legacy, 0.0);
  add("halo", "pooled-zero-copy", halo_pooled, halo_speedup);
  add("transpose", "seed-copy", tr_legacy, 0.0);
  add("transpose", "pooled-zero-copy", tr_pooled, tr_speedup);
  agcm::bench::emit_table(report, table);

  agcm::bench::print_note(
      "gates: halo >= " + Table::num(kHaloGate, 1) + "x (got " +
      Table::num(halo_speedup, 2) + "x), transpose >= " +
      Table::num(kTransposeGate, 1) + "x (got " + Table::num(tr_speedup, 2) +
      "x)");

  report.set("halo_mb_per_s_seed", halo_legacy.mb_per_s);
  report.set("halo_mb_per_s_pooled", halo_pooled.mb_per_s);
  report.set("halo_speedup", halo_speedup);
  report.set("transpose_mb_per_s_seed", tr_legacy.mb_per_s);
  report.set("transpose_mb_per_s_pooled", tr_pooled.mb_per_s);
  report.set("transpose_speedup", tr_speedup);
  report.set("gate_halo_speedup_min", kHaloGate);
  report.set("gate_transpose_speedup_min", kTransposeGate);

  // Cross-path correctness: identical traffic and bit-identical results.
  bool ok = true;
  if (halo_legacy.bytes != halo_pooled.bytes ||
      tr_legacy.bytes != tr_pooled.bytes) {
    std::fprintf(stderr, "traffic mismatch between paths\n");
    ok = false;
  }
  if (halo_legacy.checksum != halo_pooled.checksum ||
      tr_legacy.checksum != tr_pooled.checksum) {
    std::fprintf(stderr, "checksum drift between copy and zero-copy paths\n");
    ok = false;
  }
  const bool gates = halo_speedup >= kHaloGate && tr_speedup >= kTransposeGate;
  if (!gates) {
    std::fprintf(stderr,
                 "speedup gate failed: halo %.2fx (>= %.1fx), "
                 "transpose %.2fx (>= %.1fx)\n",
                 halo_speedup, kHaloGate, tr_speedup, kTransposeGate);
  }
  report.set("gates_passed", gates && ok);
  report.finish();
  return gates && ok ? 0 : 1;
}
