#include "grid/halo.hpp"

#include <cstring>

#include "comm/packed.hpp"

namespace agcm::grid {

namespace {

constexpr int kTagEast = 201;   // data travelling eastward
constexpr int kTagWest = 202;   // data travelling westward
constexpr int kTagNorth = 203;  // data travelling northward
constexpr int kTagSouth = 204;  // data travelling southward

/// Cached strip program for one field shape: every halo side decomposes
/// into equal-length contiguous runs whose geometry depends only on
/// (ni, nj, nk, ghost, width). Computed once per exchange and shared by all
/// fields in a batch (they are required to have the same shape).
struct HaloProgram {
  int g;   ///< exchange width
  int ni, nj, nk;
  std::size_t i_elems;  ///< east/west strip:  g * nj * nk
  std::size_t j_elems;  ///< north/south strip: g * (ni + 2g) * nk

  HaloProgram(const Array3D<double>& a, int width)
      : g(width), ni(a.ni()), nj(a.nj()), nk(a.nk()),
        i_elems(i_strip_elems(a, width)),
        j_elems(j_strip_elems(a, width, width)) {}

  std::size_t i_bytes() const { return i_elems * sizeof(double); }
  std::size_t j_bytes() const { return j_elems * sizeof(double); }
};

/// Periodic longitude wrap when the whole latitude circle lives on one
/// processor column: both i-ghost strips are local copies.
void wrap_longitude_local(Array3D<double>& f, int g) {
  const std::size_t run = static_cast<std::size_t>(g) * sizeof(double);
  for (int k = 0; k < f.nk(); ++k)
    for (int j = 0; j < f.nj(); ++j) {
      std::memcpy(&f.at(-g, j, k), &f.at(f.ni() - g, j, k), run);
      std::memcpy(&f.at(f.ni(), j, k), &f.at(0, j, k), run);
    }
}

/// Phase 1 (east/west, periodic) for one field over pooled wire buffers.
/// The message pattern, sizes and virtual-clock charge sequence are exactly
/// those of the historical copy-path implementation; only the host-side
/// staging changed (strips are packed once, straight into the wire buffer).
void exchange_east_west(const comm::Mesh2D& mesh, Array3D<double>& f,
                        const HaloProgram& prog) {
  const comm::Communicator& world = mesh.world();
  auto& clock = world.context().clock();
  const int g = prog.g;

  if (mesh.cols() == 1) {
    wrap_longitude_local(f, g);
    clock.memory_traffic(static_cast<double>(2 * prog.i_elems) *
                         sizeof(double));
    return;
  }
  // Send my east edge eastward; it becomes the east neighbour's west
  // ghost. Symmetrically westward.
  comm::PackedWriter east_edge = world.packer(prog.i_bytes());
  pack_i_strip(f, f.ni() - g, g, east_edge.append<double>(prog.i_elems));
  comm::PackedWriter west_edge = world.packer(prog.i_bytes());
  pack_i_strip(f, 0, g, west_edge.append<double>(prog.i_elems));
  clock.memory_traffic(static_cast<double>(2 * prog.i_elems) * sizeof(double));
  world.send_packed(mesh.east(), kTagEast, std::move(east_edge));
  world.send_packed(mesh.west(), kTagWest, std::move(west_edge));
  {
    comm::PackedReader from_west = world.recv_packed(mesh.west(), kTagEast);
    unpack_i_strip(f, -g, g, from_west.view<double>(prog.i_elems));
  }
  {
    comm::PackedReader from_east = world.recv_packed(mesh.east(), kTagWest);
    unpack_i_strip(f, f.ni(), g, from_east.view<double>(prog.i_elems));
  }
  clock.memory_traffic(static_cast<double>(2 * prog.i_elems) * sizeof(double));
}

/// Phase 2 (north/south, non-periodic) for one field; rows run south->north.
void exchange_north_south(const comm::Mesh2D& mesh, Array3D<double>& f,
                          const HaloProgram& prog) {
  const comm::Communicator& world = mesh.world();
  auto& clock = world.context().clock();
  const int g = prog.g;
  const auto north = mesh.north();
  const auto south = mesh.south();

  if (north) {
    comm::PackedWriter to_north = world.packer(prog.j_bytes());
    pack_j_strip(f, f.nj() - g, g, g, to_north.append<double>(prog.j_elems));
    clock.memory_traffic(static_cast<double>(prog.j_elems) * sizeof(double));
    world.send_packed(*north, kTagNorth, std::move(to_north));
  }
  if (south) {
    comm::PackedWriter to_south = world.packer(prog.j_bytes());
    pack_j_strip(f, 0, g, g, to_south.append<double>(prog.j_elems));
    clock.memory_traffic(static_cast<double>(prog.j_elems) * sizeof(double));
    world.send_packed(*south, kTagSouth, std::move(to_south));
  }
  if (south) {
    comm::PackedReader from_south = world.recv_packed(*south, kTagNorth);
    unpack_j_strip(f, -g, g, g, from_south.view<double>(prog.j_elems));
    clock.memory_traffic(static_cast<double>(prog.j_elems) * sizeof(double));
  }
  if (north) {
    comm::PackedReader from_north = world.recv_packed(*north, kTagSouth);
    unpack_j_strip(f, f.nj(), g, g, from_north.view<double>(prog.j_elems));
    clock.memory_traffic(static_cast<double>(prog.j_elems) * sizeof(double));
  }
}

}  // namespace

std::size_t i_strip_elems(const Array3D<double>& a, int width) {
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(a.nj()) *
         static_cast<std::size_t>(a.nk());
}

std::size_t j_strip_elems(const Array3D<double>& a, int width, int g) {
  return static_cast<std::size_t>(width) *
         static_cast<std::size_t>(a.ni() + 2 * g) *
         static_cast<std::size_t>(a.nk());
}

void pack_i_strip(const Array3D<double>& a, int i_begin, int width,
                  std::span<double> out) {
  AGCM_DBG_ASSERT(out.size() == i_strip_elems(a, width));
  const std::size_t run = static_cast<std::size_t>(width) * sizeof(double);
  double* dst = out.data();
  for (int k = 0; k < a.nk(); ++k)
    for (int j = 0; j < a.nj(); ++j) {
      std::memcpy(dst, &a.at(i_begin, j, k), run);  // i is the unit stride
      dst += width;
    }
}

void unpack_i_strip(Array3D<double>& a, int i_begin, int width,
                    std::span<const double> in) {
  AGCM_DBG_ASSERT(in.size() == i_strip_elems(a, width));
  const std::size_t run = static_cast<std::size_t>(width) * sizeof(double);
  const double* src = in.data();
  for (int k = 0; k < a.nk(); ++k)
    for (int j = 0; j < a.nj(); ++j) {
      std::memcpy(&a.at(i_begin, j, k), src, run);
      src += width;
    }
}

void pack_j_strip(const Array3D<double>& a, int j_begin, int width, int g,
                  std::span<double> out) {
  AGCM_DBG_ASSERT(out.size() == j_strip_elems(a, width, g));
  const int row_elems = a.ni() + 2 * g;
  const std::size_t run = static_cast<std::size_t>(row_elems) * sizeof(double);
  double* dst = out.data();
  for (int k = 0; k < a.nk(); ++k)
    for (int dj = 0; dj < width; ++dj) {
      std::memcpy(dst, &a.at(-g, j_begin + dj, k), run);
      dst += row_elems;
    }
}

void unpack_j_strip(Array3D<double>& a, int j_begin, int width, int g,
                    std::span<const double> in) {
  AGCM_DBG_ASSERT(in.size() == j_strip_elems(a, width, g));
  const int row_elems = a.ni() + 2 * g;
  const std::size_t run = static_cast<std::size_t>(row_elems) * sizeof(double);
  const double* src = in.data();
  for (int k = 0; k < a.nk(); ++k)
    for (int dj = 0; dj < width; ++dj) {
      std::memcpy(&a.at(-g, j_begin + dj, k), src, run);
      src += row_elems;
    }
}

void exchange_halo(const comm::Mesh2D& mesh, Array3D<double>& field,
                   int width) {
  Array3D<double>* fields[] = {&field};
  exchange_halos(mesh, fields, width);
}

void exchange_halos(const comm::Mesh2D& mesh,
                    std::span<Array3D<double>* const> fields, int width) {
  if (fields.empty()) return;
  AGCM_ASSERT(fields[0] != nullptr);
  const Array3D<double>& first = *fields[0];
  const int g = width < 0 ? first.ghost() : width;
  check_config(g >= 1 && g <= first.ghost(),
               "halo width must be in [1, ghost]");
  for (Array3D<double>* f : fields) {
    AGCM_ASSERT(f != nullptr);
    check_config(f->same_shape(first),
                 "exchange_halos: all fields must share a shape");
  }
  const HaloProgram prog(first, g);

  // Bitwise the historical behaviour: each field performs the full
  // two-phase exchange before the next one starts.
  for (Array3D<double>* f : fields) {
    exchange_east_west(mesh, *f, prog);
    exchange_north_south(mesh, *f, prog);
  }
}

}  // namespace agcm::grid
