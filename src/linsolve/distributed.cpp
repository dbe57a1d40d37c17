#include "linsolve/distributed.hpp"

#include <array>
#include <cmath>

#include "util/error.hpp"

namespace agcm::linsolve {

namespace {

/// Solves a banded system with half-bandwidth 2 (the reduced interface
/// system is pentadiagonal in its natural ordering), no pivoting —
/// diagonal dominance of the original system carries over. Band storage:
/// band[r][off] = A(r, r + off - 2), off in [0, 4].
std::vector<double> banded5_solve(
    std::vector<std::array<double, 5>>& band, std::vector<double>& rhs) {
  const std::size_t n = rhs.size();
  auto at = [&](std::size_t r, std::size_t col) -> double& {
    AGCM_DBG_ASSERT(col + 2 >= r && col <= r + 2);
    return band[r][col + 2 - r];
  };
  for (std::size_t k = 0; k < n; ++k) {
    const double pivot = at(k, k);
    check_config(std::abs(pivot) > 1.0e-300,
                 "distributed tridiagonal: singular reduced system");
    for (std::size_t r = k + 1; r < std::min(n, k + 3); ++r) {
      const double m = at(r, k) / pivot;
      if (m == 0.0) continue;
      for (std::size_t col = k; col < std::min(n, k + 3); ++col)
        at(r, col) -= m * at(k, col);
      rhs[r] -= m * rhs[k];
      at(r, k) = 0.0;
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[i];
    for (std::size_t col = i + 1; col < std::min(n, i + 3); ++col)
      acc -= at(i, col) * x[col];
    x[i] = acc / at(i, i);
  }
  return x;
}

/// Local two-sweep elimination for one system: on return every local row i
/// satisfies  fl[i] x_L + bb[i] x_i + fr[i] x_R = dd[i].
struct Eliminated {
  std::vector<double> bb, dd, fl, fr;
};

Eliminated eliminate_local(int p, int me, std::span<const double> a,
                           std::span<const double> b,
                           std::span<const double> c,
                           std::span<const double> d) {
  const std::size_t n = b.size();
  Eliminated e;
  e.bb.assign(b.begin(), b.end());
  e.dd.assign(d.begin(), d.end());
  e.fl.assign(n, 0.0);
  e.fr.assign(n, 0.0);
  std::vector<double> cc(c.begin(), c.end());
  if (me > 0) e.fl[0] = a[0];
  if (me + 1 < p) e.fr[n - 1] = cc[n - 1];
  if (me + 1 == p) cc[n - 1] = 0.0;

  for (std::size_t i = 1; i < n; ++i) {  // forward sweep
    AGCM_DBG_ASSERT(e.bb[i - 1] != 0.0);
    const double m = a[i] / e.bb[i - 1];
    e.bb[i] -= m * cc[i - 1];
    e.fl[i] -= m * e.fl[i - 1];
    e.dd[i] -= m * e.dd[i - 1];
  }
  for (std::size_t i = n - 1; i-- > 0;) {  // backward sweep
    AGCM_DBG_ASSERT(e.bb[i + 1] != 0.0);
    const double m = cc[i] / e.bb[i + 1];
    e.fl[i] -= m * e.fl[i + 1];
    e.fr[i] -= m * e.fr[i + 1];
    e.dd[i] -= m * e.dd[i + 1];
    cc[i] = 0.0;
  }
  return e;
}

}  // namespace

std::vector<double> distributed_tridiagonal_solve_many(
    const comm::Communicator& comm, int m, std::span<const double> a,
    std::span<const double> b, std::span<const double> c,
    std::span<const double> d) {
  check_config(m >= 1, "need at least one system");
  check_config(b.size() % static_cast<std::size_t>(m) == 0,
               "array length must be m * n");
  const std::size_t n = b.size() / static_cast<std::size_t>(m);
  AGCM_ASSERT(a.size() == b.size() && c.size() == b.size() &&
              d.size() == b.size());
  check_config(n >= 1, "every rank needs at least one row per system");
  const int p = comm.size();
  const int me = comm.rank();

  // Local eliminations (no communication).
  std::vector<Eliminated> locals;
  locals.reserve(static_cast<std::size_t>(m));
  for (int q = 0; q < m; ++q) {
    const std::size_t off = static_cast<std::size_t>(q) * n;
    locals.push_back(eliminate_local(p, me, a.subspan(off, n),
                                     b.subspan(off, n), c.subspan(off, n),
                                     d.subspan(off, n)));
  }
  comm.charge_flops(12.0 * static_cast<double>(n) * m);

  // One gather carries every system's interface rows: per system 9 doubles
  // [fl0 b0 fr0 d0 fln bn frn dn n].
  std::vector<double> contribution;
  contribution.reserve(static_cast<std::size_t>(m) * 9);
  for (const Eliminated& e : locals) {
    contribution.insert(contribution.end(),
                        {e.fl[0], e.bb[0], e.fr[0], e.dd[0], e.fl[n - 1],
                         e.bb[n - 1], e.fr[n - 1], e.dd[n - 1],
                         static_cast<double>(n)});
  }
  std::vector<int> counts(static_cast<std::size_t>(p), 9 * m);
  std::vector<double> all(
      me == 0 ? contribution.size() * static_cast<std::size_t>(p) : 0);
  comm.gatherv_into<double>(0, contribution, counts, all);

  // Root: m independent reduced systems, each pentadiagonal with at most
  // 2P unknowns; returns per rank and system [x_first x_last x_left x_right].
  std::vector<double> interface_info;
  if (me == 0) {
    interface_info.resize(static_cast<std::size_t>(p) *
                          static_cast<std::size_t>(m) * 4);
    for (int q = 0; q < m; ++q) {
      auto entry = [&](int rank, int field) {
        return all[static_cast<std::size_t>(rank) * 9 *
                       static_cast<std::size_t>(m) +
                   static_cast<std::size_t>(q) * 9 +
                   static_cast<std::size_t>(field)];
      };
      std::vector<std::size_t> u_first(static_cast<std::size_t>(p));
      std::vector<std::size_t> u_last(static_cast<std::size_t>(p));
      std::size_t nu = 0;
      for (int r = 0; r < p; ++r) {
        u_first[static_cast<std::size_t>(r)] = nu;
        u_last[static_cast<std::size_t>(r)] =
            entry(r, 8) > 1.5 ? nu + 1 : nu;
        nu = u_last[static_cast<std::size_t>(r)] + 1;
      }
      std::vector<std::array<double, 5>> band(nu, {0, 0, 0, 0, 0});
      std::vector<double> rhs(nu, 0.0);
      auto add = [&](std::size_t row, std::size_t col, double v) {
        AGCM_ASSERT(col + 2 >= row && col <= row + 2);
        band[row][col + 2 - row] += v;
      };
      for (int r = 0; r < p; ++r) {
        const bool two_rows = entry(r, 8) > 1.5;
        const std::size_t rf = u_first[static_cast<std::size_t>(r)];
        const std::size_t rl = u_last[static_cast<std::size_t>(r)];
        if (r > 0) add(rf, u_last[static_cast<std::size_t>(r - 1)], entry(r, 0));
        add(rf, rf, entry(r, 1));
        if (r + 1 < p) add(rf, u_first[static_cast<std::size_t>(r + 1)], entry(r, 2));
        rhs[rf] += entry(r, 3);
        if (two_rows) {
          if (r > 0) add(rl, u_last[static_cast<std::size_t>(r - 1)], entry(r, 4));
          add(rl, rl, entry(r, 5));
          if (r + 1 < p) add(rl, u_first[static_cast<std::size_t>(r + 1)], entry(r, 6));
          rhs[rl] += entry(r, 7);
        }
      }
      const std::vector<double> u = banded5_solve(band, rhs);
      for (int r = 0; r < p; ++r) {
        double* out = interface_info.data() +
                      (static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(m) +
                       static_cast<std::size_t>(q)) *
                          4;
        out[0] = u[u_first[static_cast<std::size_t>(r)]];
        out[1] = u[u_last[static_cast<std::size_t>(r)]];
        out[2] = r > 0 ? u[u_last[static_cast<std::size_t>(r - 1)]] : 0.0;
        out[3] = r + 1 < p ? u[u_first[static_cast<std::size_t>(r + 1)]] : 0.0;
      }
    }
    comm.charge_flops(25.0 * 2.0 * static_cast<double>(p) * m);
  }
  std::vector<int> fours(static_cast<std::size_t>(p), 4 * m);
  std::vector<double> mine(static_cast<std::size_t>(m) * 4);
  comm.scatterv_into<double>(0, interface_info, fours, mine);

  // Local back substitution for every system.
  std::vector<double> x(b.size());
  for (int q = 0; q < m; ++q) {
    const Eliminated& e = locals[static_cast<std::size_t>(q)];
    const double* iface = mine.data() + static_cast<std::size_t>(q) * 4;
    const std::size_t off = static_cast<std::size_t>(q) * n;
    x[off] = iface[0];
    x[off + n - 1] = iface[1];
    for (std::size_t i = 1; i + 1 < n; ++i) {
      AGCM_DBG_ASSERT(e.bb[i] != 0.0);
      x[off + i] =
          (e.dd[i] - e.fl[i] * iface[2] - e.fr[i] * iface[3]) / e.bb[i];
    }
  }
  comm.charge_flops(5.0 * static_cast<double>(n) * m);
  return x;
}

std::vector<double> distributed_tridiagonal_solve(
    const comm::Communicator& comm, std::span<const double> a,
    std::span<const double> b, std::span<const double> c,
    std::span<const double> d) {
  return distributed_tridiagonal_solve_many(comm, 1, a, b, c, d);
}

std::vector<double> distributed_periodic_tridiagonal_solve_many(
    const comm::Communicator& comm, int m, std::span<const double> a,
    std::span<const double> b, std::span<const double> c,
    std::span<const double> d) {
  check_config(m >= 1, "need at least one system");
  check_config(b.size() % static_cast<std::size_t>(m) == 0,
               "array length must be m * n");
  const std::size_t n = b.size() / static_cast<std::size_t>(m);
  const int p = comm.size();
  const int me = comm.rank();
  const double n_global = comm.allreduce_sum(static_cast<double>(n));
  check_config(n_global >= 3.0, "periodic distributed solve needs N >= 3");

  // Sherman-Morrison per system. The corner entries a_first (rank 0) and
  // c_last (rank p-1) travel in one broadcast each, batched over systems.
  std::vector<double> corner_a(static_cast<std::size_t>(m), 0.0);
  std::vector<double> corner_c(static_cast<std::size_t>(m), 0.0);
  std::vector<double> gamma(static_cast<std::size_t>(m), 0.0);
  if (me == 0) {
    for (int q = 0; q < m; ++q) {
      corner_a[static_cast<std::size_t>(q)] = a[static_cast<std::size_t>(q) * n];
      gamma[static_cast<std::size_t>(q)] = -b[static_cast<std::size_t>(q) * n];
    }
  }
  if (me == p - 1) {
    for (int q = 0; q < m; ++q)
      corner_c[static_cast<std::size_t>(q)] =
          c[static_cast<std::size_t>(q) * n + n - 1];
  }
  comm.broadcast<double>(0, corner_a);
  comm.broadcast<double>(0, gamma);
  comm.broadcast<double>(p - 1, corner_c);
  for (double g : gamma)
    check_config(g != 0.0, "periodic distributed solve: zero b[0]");

  std::vector<double> bb(b.begin(), b.end());
  std::vector<double> u(b.size(), 0.0);
  for (int q = 0; q < m; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    const std::size_t off = uq * n;
    if (me == 0) {
      bb[off] -= gamma[uq];
      u[off] = gamma[uq];
    }
    if (me == p - 1) {
      bb[off + n - 1] -= corner_c[uq] * corner_a[uq] / gamma[uq];
      u[off + n - 1] = corner_c[uq];
    }
  }

  const auto y = distributed_tridiagonal_solve_many(comm, m, a, bb, c, d);
  const auto z = distributed_tridiagonal_solve_many(comm, m, a, bb, c, u);

  // v^T y and v^T z for every system via one allreduce of 2m doubles.
  std::vector<double> dots(2 * static_cast<std::size_t>(m), 0.0);
  for (int q = 0; q < m; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    const std::size_t off = uq * n;
    if (me == 0) {
      dots[2 * uq] += y[off];
      dots[2 * uq + 1] += z[off];
    }
    if (me == p - 1) {
      const double scale = corner_a[uq] / gamma[uq];
      dots[2 * uq] += scale * y[off + n - 1];
      dots[2 * uq + 1] += scale * z[off + n - 1];
    }
  }
  std::vector<double> summed(dots.size());
  comm.allreduce<double>(dots, summed, [](double x1, double x2) { return x1 + x2; });

  std::vector<double> x(b.size());
  for (int q = 0; q < m; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    const double vz = 1.0 + summed[2 * uq + 1];
    check_config(vz != 0.0, "periodic distributed solve: singular update");
    const double factor = summed[2 * uq] / vz;
    const std::size_t off = uq * n;
    for (std::size_t i = 0; i < n; ++i) x[off + i] = y[off + i] - factor * z[off + i];
  }
  comm.charge_flops(2.0 * static_cast<double>(n) * m);
  return x;
}

std::vector<double> distributed_periodic_tridiagonal_solve(
    const comm::Communicator& comm, std::span<const double> a,
    std::span<const double> b, std::span<const double> c,
    std::span<const double> d) {
  return distributed_periodic_tridiagonal_solve_many(comm, 1, a, b, c, d);
}

}  // namespace agcm::linsolve
