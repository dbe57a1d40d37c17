#include "kernels/workspace.hpp"

namespace agcm::kernels {

namespace {

void reshape(grid::Array3D<double>& a, int ni, int nj, int nk, int ghost) {
  if (a.ni() == ni && a.nj() == nj && a.nk() == nk && a.ghost() == ghost)
    return;
  a = grid::Array3D<double>(ni, nj, nk, ghost);
}

}  // namespace

grid::Array3D<double>& KernelWorkspace::flux_x(int ni, int nj, int nk) {
  reshape(flux_x_, ni, nj, nk, /*ghost=*/1);
  return flux_x_;
}

grid::Array3D<double>& KernelWorkspace::flux_y(int ni, int nj, int nk) {
  reshape(flux_y_, ni, nj, nk, /*ghost=*/1);
  return flux_y_;
}

std::span<grid::Array3D<double>> KernelWorkspace::tracer_updates(
    std::size_t count, int ni, int nj, int nk) {
  std::span<grid::Array3D<double>> updates = updates_.take(count);
  for (grid::Array3D<double>& u : updates)
    reshape(u, ni, nj, nk, /*ghost=*/0);
  return updates;
}

}  // namespace agcm::kernels
