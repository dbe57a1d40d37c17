#include "perfmodel/model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace agcm::perfmodel {

double basis(const Hypothesis& hyp, double x) {
  double phi = 1.0;
  if (hyp.a != 0.0) phi *= std::pow(x, hyp.a);
  if (hyp.b != 0) {
    const double lg = x > 1.0 ? std::log2(x) : 0.0;
    double lp = lg;
    for (int i = 1; i < hyp.b; ++i) lp *= lg;
    phi *= lp;
  }
  return phi;
}

bool dominates(const Hypothesis& lhs, const Hypothesis& rhs) {
  if (lhs.a != rhs.a) return lhs.a > rhs.a;
  return lhs.b > rhs.b;
}

std::string complexity_label(const Hypothesis& hyp) {
  if (hyp.a == 0.0 && hyp.b == 0) return "1";
  std::string out;
  if (hyp.a != 0.0) {
    out = "x";
    if (hyp.a != 1.0) {
      // Grid exponents are multiples of 0.25; print the shortest exact form.
      std::string repr = trace::JsonValue::number_repr(hyp.a);
      out += "^" + repr;
    }
  }
  if (hyp.b != 0) {
    if (!out.empty()) out += " * ";
    out += "log2(x)";
    if (hyp.b != 1) {
      // Two appends, not `"^" + std::to_string(...)`: GCC 12 reports a
      // false -Wrestrict on literal + std::string&& at -O2/-O3.
      out += '^';
      out += std::to_string(hyp.b);
    }
  }
  return out;
}

std::vector<Hypothesis> default_grid() {
  std::vector<Hypothesis> grid;
  for (int ia = 0; ia <= 12; ++ia) {        // a = 0, 0.25, ..., 3.0
    for (int b = 0; b <= 2; ++b) {
      grid.push_back({static_cast<double>(ia) * 0.25, b});
    }
  }
  return grid;
}

double FitResult::evaluate(double x) const { return c0 + c1 * basis(hyp, x); }

namespace {

struct LinearFit {
  double c0 = 0.0;
  double c1 = 0.0;
};

/// Solves the 2x2 normal equations for y = c0 + c1 * phi. Returns nullopt
/// on a (near-)singular system, i.e. when phi is constant over the sample.
std::optional<LinearFit> solve_normal(const std::vector<double>& phi,
                                      const std::vector<double>& y,
                                      bool constant_only) {
  const auto n = static_cast<double>(phi.size());
  double sum_phi = 0.0, sum_phi2 = 0.0, sum_y = 0.0, sum_phiy = 0.0;
  for (std::size_t i = 0; i < phi.size(); ++i) {
    sum_phi += phi[i];
    sum_phi2 += phi[i] * phi[i];
    sum_y += y[i];
    sum_phiy += phi[i] * y[i];
  }
  if (constant_only) return LinearFit{sum_y / n, 0.0};
  const double det = n * sum_phi2 - sum_phi * sum_phi;
  // Relative singularity test: det is O(n * sum_phi2) for well-spread phi.
  if (!(det > 1e-12 * n * sum_phi2)) return std::nullopt;
  LinearFit fit;
  fit.c1 = (n * sum_phiy - sum_phi * sum_y) / det;
  fit.c0 = (sum_y - fit.c1 * sum_phi) / n;
  return fit;
}

}  // namespace

std::optional<FitResult> fit_hypothesis(const std::vector<double>& x,
                                        const std::vector<double>& y,
                                        const Hypothesis& hyp) {
  if (x.size() != y.size() || x.size() < 2) return std::nullopt;
  const bool constant_only = hyp.a == 0.0 && hyp.b == 0;

  std::vector<double> phi(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) phi[i] = basis(hyp, x[i]);

  const std::optional<LinearFit> full = solve_normal(phi, y, constant_only);
  if (!full) return std::nullopt;
  if (!constant_only && full->c1 < 0.0) return std::nullopt;

  FitResult fit;
  fit.hyp = hyp;
  fit.c0 = full->c0;
  fit.c1 = full->c1;

  // In-sample residuals -> RMSE and R^2.
  const auto n = static_cast<double>(x.size());
  double mean_y = 0.0;
  for (const double v : y) mean_y += v;
  mean_y /= n;
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double resid = y[i] - (full->c0 + full->c1 * phi[i]);
    ss_res += resid * resid;
    const double dev = y[i] - mean_y;
    ss_tot += dev * dev;
  }
  fit.rmse = std::sqrt(ss_res / n);
  if (ss_tot > 0.0) {
    fit.r2 = 1.0 - ss_res / ss_tot;
  } else {
    // Constant series: perfect iff the model reproduces it.
    fit.r2 = ss_res == 0.0 ? 1.0 : 0.0;
  }

  // Leave-one-out cross-validation: refit on n-1 points, score the
  // held-out residual. n is tiny (a sweep has <= ~10 cells), so the naive
  // refit loop is the clear choice over the hat-matrix shortcut.
  double cv_ss = 0.0;
  std::size_t cv_n = 0;
  std::vector<double> phi_loo(x.size() - 1), y_loo(x.size() - 1);
  for (std::size_t hold = 0; hold < x.size(); ++hold) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (i == hold) continue;
      phi_loo[k] = phi[i];
      y_loo[k] = y[i];
      ++k;
    }
    const std::optional<LinearFit> loo =
        solve_normal(phi_loo, y_loo, constant_only);
    if (!loo) return std::nullopt;  // hypothesis unstable under CV: reject
    const double resid = y[hold] - (loo->c0 + loo->c1 * phi[hold]);
    cv_ss += resid * resid;
    ++cv_n;
  }
  fit.cv_rmse = std::sqrt(cv_ss / static_cast<double>(cv_n));
  return fit;
}

FitResult fit_model(const std::vector<double>& x,
                    const std::vector<double>& y) {
  return fit_model(x, y, default_grid());
}

FitResult fit_model(const std::vector<double>& x, const std::vector<double>& y,
                    const std::vector<Hypothesis>& grid) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fit_model: x/y size mismatch");
  }
  if (x.size() < 3) {
    throw std::invalid_argument("fit_model: need >= 3 points");
  }
  for (const double v : x) {
    if (!(v > 0.0)) {
      throw std::invalid_argument("fit_model: x must be strictly positive");
    }
  }

  std::optional<FitResult> best;
  // Complexity-ascending scan with strict improvement: ties keep the
  // asymptotically smaller hypothesis, so the selection is deterministic
  // and never over-fits a simple series with a fancier class.
  for (const Hypothesis& hyp : grid) {
    const std::optional<FitResult> fit = fit_hypothesis(x, y, hyp);
    if (!fit) continue;
    if (!best || fit->cv_rmse < best->cv_rmse) best = fit;
  }
  if (!best) {
    throw std::invalid_argument(
        "fit_model: no hypothesis admissible for the data");
  }
  return *best;
}

trace::JsonValue fit_json(const FitResult& fit) {
  trace::JsonValue out = trace::JsonValue::object();
  out.set("complexity", fit.label());
  out.set("exponent_a", fit.hyp.a);
  out.set("log_power_b", fit.hyp.b);
  out.set("c0", fit.c0);
  out.set("c1", fit.c1);
  out.set("r2", fit.r2);
  out.set("rmse", fit.rmse);
  out.set("cv_rmse", fit.cv_rmse);
  return out;
}

}  // namespace agcm::perfmodel
