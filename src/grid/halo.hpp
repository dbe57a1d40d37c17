// Ghost-point (halo) exchange for 2-D decomposed 3-D fields.
//
// This is one of the paper's "reusable GCM template modules" (Section 5):
// exchange of ghost-point values at domain-partition boundaries, with the
// physical periodic boundary condition in longitude enforced automatically
// (including the single-column-of-processors case, where the wrap is a
// local copy rather than a message).
//
// The exchange runs on the zero-copy pooled transport (docs/transport.md):
// edge strips are packed by cached strip programs (fixed-length memcpy runs
// derived from the array strides) directly into pooled wire buffers, and
// unpacked in place from received payloads. The exchange is virtual-time
// neutral with the historical implementation — same messages, same sizes,
// same charge sequence.
#pragma once

#include <span>

#include "comm/mesh2d.hpp"
#include "grid/array3d.hpp"

namespace agcm::grid {

// --- strip programs ---------------------------------------------------------
//
// Every halo side is a "strip": a set of equal-length contiguous memory runs
// fixed by the array shape. Exposed for tests and the transport bench.

/// Elements in a `width`-wide i-strip (east/west edge): width * nj * nk.
std::size_t i_strip_elems(const Array3D<double>& a, int width);

/// Elements in a `width`-wide j-strip including i-ghosts (north/south edge):
/// width * (ni + 2g) * nk.
std::size_t j_strip_elems(const Array3D<double>& a, int width, int g);

/// Packs the i-columns [i_begin, i_begin+width) over j in [0, nj), all k,
/// into `out` (size i_strip_elems), k-outer / j / i-fastest order.
void pack_i_strip(const Array3D<double>& a, int i_begin, int width,
                  std::span<double> out);

/// Inverse of pack_i_strip.
void unpack_i_strip(Array3D<double>& a, int i_begin, int width,
                    std::span<const double> in);

/// Packs the j-rows [j_begin, j_begin+width) spanning i in [-g, ni+g), all
/// k, into `out` (size j_strip_elems), k-outer / j / i-fastest order.
void pack_j_strip(const Array3D<double>& a, int j_begin, int width, int g,
                  std::span<double> out);

/// Inverse of pack_j_strip.
void unpack_j_strip(Array3D<double>& a, int j_begin, int width, int g,
                    std::span<const double> in);

// --- exchanges --------------------------------------------------------------

/// Exchanges `width` ghost cells (default: the array's full ghost width) on
/// all four sides of the local block. Longitude wraps periodically; at the
/// north/south domain edges (the poles) ghost rows are left untouched —
/// the dynamical core applies its own polar condition there.
///
/// Collective over the mesh. Corners are filled correctly (two-phase
/// exchange: east/west first, then north/south including the i-ghosts).
void exchange_halo(const comm::Mesh2D& mesh, Array3D<double>& field,
                   int width = -1);

/// Batched exchange of several fields in one collective sweep. All fields
/// must share a shape. Bit-identical (data and virtual time) to calling
/// exchange_halo on each field in order: one message per field per
/// neighbour direction.
void exchange_halos(const comm::Mesh2D& mesh,
                    std::span<Array3D<double>* const> fields, int width = -1);

}  // namespace agcm::grid
