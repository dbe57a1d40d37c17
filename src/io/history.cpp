#include "io/history.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "io/byteswap.hpp"
#include "util/error.hpp"

namespace agcm::io {

namespace {

constexpr char kMagic[8] = {'A', 'G', 'C', 'M', 'H', 'I', 'S', 'T'};
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
void write_raw(std::FILE* f, const T& value, bool swap) {
  T v = swap ? byteswap_value(value) : value;
  if (std::fwrite(&v, sizeof(T), 1, f) != 1)
    throw DataError("history write failed");
}

template <typename T>
T read_raw(std::FILE* f, bool swap) {
  T v{};
  if (std::fread(&v, sizeof(T), 1, f) != 1)
    throw DataError("history file truncated");
  return swap ? byteswap_value(v) : v;
}

}  // namespace

const HistoryField* HistoryFile::find(const std::string& name) const {
  for (const HistoryField& f : fields)
    if (f.name == name) return &f;
  return nullptr;
}

void write_history(const std::string& path, const HistoryFile& history,
                   bool foreign_endian) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw DataError("cannot open history file for writing: " + path);
  const bool swap = foreign_endian;
  if (std::fwrite(kMagic, 1, sizeof(kMagic), f.get()) != sizeof(kMagic))
    throw DataError("history write failed");
  write_raw<std::uint32_t>(f.get(), kVersion, swap);
  const std::uint8_t marker =
      foreign_endian ? (1 - host_endianness_marker()) : host_endianness_marker();
  write_raw<std::uint8_t>(f.get(), marker, false);
  write_raw<std::int32_t>(f.get(), history.nlon, swap);
  write_raw<std::int32_t>(f.get(), history.nlat, swap);
  write_raw<std::int32_t>(f.get(), history.nlev, swap);
  write_raw<double>(f.get(), history.time_sec, swap);
  write_raw<std::int64_t>(f.get(), history.step, swap);
  write_raw<std::uint32_t>(
      f.get(), static_cast<std::uint32_t>(history.fields.size()), swap);
  const std::size_t expected =
      static_cast<std::size_t>(history.nlon) *
      static_cast<std::size_t>(history.nlat) *
      static_cast<std::size_t>(history.nlev);
  for (const HistoryField& field : history.fields) {
    if (field.values.size() != expected)
      throw DataError("history field '" + field.name + "' has wrong size");
    write_raw<std::uint32_t>(
        f.get(), static_cast<std::uint32_t>(field.name.size()), swap);
    if (!field.name.empty() &&
        std::fwrite(field.name.data(), 1, field.name.size(), f.get()) !=
            field.name.size())
      throw DataError("history write failed");
    for (double v : field.values) write_raw<double>(f.get(), v, swap);
  }
}

HistoryFile read_history(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw DataError("cannot open history file: " + path);
  std::fseek(f.get(), 0, SEEK_END);
  const long file_bytes = std::ftell(f.get());
  std::rewind(f.get());
  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0)
    throw DataError("not an AGCM history file: " + path);
  // Version is written in the file's own byte order; test both readings.
  const auto version_raw = read_raw<std::uint32_t>(f.get(), false);
  const auto marker = read_raw<std::uint8_t>(f.get(), false);
  const bool swap = marker != host_endianness_marker();
  const std::uint32_t version =
      swap ? byteswap_value(version_raw) : version_raw;
  if (version != kVersion)
    throw DataError("unsupported history version " + std::to_string(version));

  HistoryFile out;
  out.nlon = read_raw<std::int32_t>(f.get(), swap);
  out.nlat = read_raw<std::int32_t>(f.get(), swap);
  out.nlev = read_raw<std::int32_t>(f.get(), swap);
  if (out.nlon <= 0 || out.nlat <= 0 || out.nlev <= 0 || out.nlon > 1 << 20 ||
      out.nlat > 1 << 20 || out.nlev > 1 << 10)
    throw DataError("history file has implausible dimensions");
  out.time_sec = read_raw<double>(f.get(), swap);
  out.step = read_raw<std::int64_t>(f.get(), swap);
  const auto nfields = read_raw<std::uint32_t>(f.get(), swap);
  if (nfields > 1024) throw DataError("history file has too many fields");
  const std::size_t expected = static_cast<std::size_t>(out.nlon) *
                               static_cast<std::size_t>(out.nlat) *
                               static_cast<std::size_t>(out.nlev);
  for (std::uint32_t n = 0; n < nfields; ++n) {
    HistoryField field;
    const auto name_len = read_raw<std::uint32_t>(f.get(), swap);
    if (name_len > 256) throw DataError("history field name too long");
    field.name.resize(name_len);
    if (name_len > 0 &&
        std::fread(field.name.data(), 1, name_len, f.get()) != name_len)
      throw DataError("history file truncated");
    // Check the declared payload against what the file still holds before
    // allocating: a corrupt header must not become a huge allocation.
    const long left = file_bytes - std::ftell(f.get());
    if (left < 0 || static_cast<std::size_t>(left) / sizeof(double) < expected)
      throw DataError("history file truncated");
    field.values.resize(expected);
    if (std::fread(field.values.data(), sizeof(double), expected, f.get()) !=
        expected)
      throw DataError("history file truncated");
    if (swap) byteswap_span<double>(field.values);
    out.fields.push_back(std::move(field));
  }
  return out;
}

namespace {

/// Packs the local interior of one state component (i fastest).
std::vector<double> pack_local(const grid::Array3D<double>& a) {
  return a.pack_interior();
}

}  // namespace

HistoryFile gather_state(const comm::Mesh2D& mesh,
                         const grid::Decomp2D& decomp,
                         const grid::LatLonGrid& grid,
                         const dynamics::State& state) {
  const comm::Communicator& world = mesh.world();
  const int p = world.size();
  const int nlev = grid.nlev();

  std::vector<int> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const grid::LocalBox b = decomp.box({r / mesh.cols(), r % mesh.cols()});
    counts[static_cast<std::size_t>(r)] = b.ni * b.nj * nlev;
  }

  const struct {
    const char* name;
    const grid::Array3D<double>* data;
  } components[] = {{"h", &state.h},       {"u", &state.u},
                    {"v", &state.v},       {"theta", &state.theta},
                    {"q", &state.q}};

  HistoryFile out;
  if (world.rank() == 0) {
    out.nlon = grid.nlon();
    out.nlat = grid.nlat();
    out.nlev = nlev;
    out.time_sec = state.time_sec;
    out.step = state.step;
  }
  for (const auto& comp : components) {
    const std::vector<double> local = pack_local(*comp.data);
    AGCM_ASSERT(static_cast<int>(local.size()) ==
                counts[static_cast<std::size_t>(world.rank())]);
    const std::vector<double> gathered = world.gatherv<double>(0, local, counts);
    if (world.rank() != 0) continue;
    HistoryField field;
    field.name = comp.name;
    field.values.assign(static_cast<std::size_t>(grid.nlon()) *
                            static_cast<std::size_t>(grid.nlat()) *
                            static_cast<std::size_t>(nlev),
                        0.0);
    // Scatter each rank's block into the global (i,j,k) layout.
    std::size_t pos = 0;
    for (int r = 0; r < p; ++r) {
      const grid::LocalBox b = decomp.box({r / mesh.cols(), r % mesh.cols()});
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < b.nj; ++j)
          for (int i = 0; i < b.ni; ++i) {
            const std::size_t g =
                static_cast<std::size_t>(b.i0 + i) +
                static_cast<std::size_t>(grid.nlon()) *
                    (static_cast<std::size_t>(b.j0 + j) +
                     static_cast<std::size_t>(grid.nlat()) *
                         static_cast<std::size_t>(k));
            field.values[g] = gathered[pos++];
          }
    }
    out.fields.push_back(std::move(field));
  }
  return out;
}

void scatter_state(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                   const grid::LatLonGrid& grid, const HistoryFile& history,
                   dynamics::State& state) {
  const comm::Communicator& world = mesh.world();
  const int p = world.size();
  const int nlev = grid.nlev();

  if (world.rank() == 0) {
    check_config(history.nlon == grid.nlon() && history.nlat == grid.nlat() &&
                     history.nlev == nlev,
                 "history dimensions do not match the model grid");
  }

  std::vector<int> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const grid::LocalBox b = decomp.box({r / mesh.cols(), r % mesh.cols()});
    counts[static_cast<std::size_t>(r)] = b.ni * b.nj * nlev;
  }

  struct Component {
    const char* name;
    grid::Array3D<double>* data;
  };
  Component components[] = {{"h", &state.h},       {"u", &state.u},
                            {"v", &state.v},       {"theta", &state.theta},
                            {"q", &state.q}};

  for (Component& comp : components) {
    std::vector<double> all;
    if (world.rank() == 0) {
      const HistoryField* field = history.find(comp.name);
      check_config(field != nullptr,
                   std::string("history file lacks field ") + comp.name);
      // Reorder the global layout into per-rank blocks.
      all.reserve(field->values.size());
      for (int r = 0; r < p; ++r) {
        const grid::LocalBox b =
            decomp.box({r / mesh.cols(), r % mesh.cols()});
        for (int k = 0; k < nlev; ++k)
          for (int j = 0; j < b.nj; ++j)
            for (int i = 0; i < b.ni; ++i) {
              const std::size_t g =
                  static_cast<std::size_t>(b.i0 + i) +
                  static_cast<std::size_t>(grid.nlon()) *
                      (static_cast<std::size_t>(b.j0 + j) +
                       static_cast<std::size_t>(grid.nlat()) *
                           static_cast<std::size_t>(k));
              all.push_back(field->values[g]);
            }
      }
    }
    const std::vector<double> mine = world.scatterv<double>(0, all, counts);
    comp.data->unpack_interior(mine);
  }

  // Scalars travel by broadcast.
  double meta[2] = {history.time_sec, static_cast<double>(history.step)};
  world.broadcast<double>(0, meta);
  state.time_sec = meta[0];
  state.step = static_cast<std::int64_t>(meta[1]);
}

}  // namespace agcm::io
