#include "stats/stepwise.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/scope_timer.hpp"
#include "util/error.hpp"

namespace tracon::stats {

namespace {

/// qr_least_squares rejects a back-substitution pivot of at most this
/// absolute size.
constexpr double kQrPivotFloor = 1e-13;
/// A score is trusted while the trial's column-scaled condition estimate
/// times sqrt(y'y / SSE) stays under this: the score and the exact fit
/// then both lie within ~1e-7 of the true SSE, relatively.
constexpr double kMaxAmplification = 1e5;
/// A trusted score more than this relative SSE above the best exact AIC
/// (n * kGuardRel in AIC units) cannot win.
constexpr double kGuardRel = 1e-5;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fits OLS on a column subset; nullopt when the subset is rank
/// deficient or over-parameterized for the sample size.
std::optional<OlsFit> try_fit(const Matrix& candidates,
                              std::span<const double> y,
                              const std::vector<std::size_t>& cols) {
  if (cols.empty() || cols.size() >= candidates.rows()) return std::nullopt;
  TRACON_PROF_SCOPE("stats.stepwise.refit");
  try {
    Matrix x = candidates.select_columns(cols);
    return ols_fit(x, y);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

double dot_n(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// One add or drop of a step, with its approximate AIC.
struct Trial {
  double score = 0.0;
  /// Position in the exhaustive scan: adds by column, then drops.
  std::size_t order = 0;
  std::size_t column = 0;
  bool add = false;
  /// The score cannot be trusted: the trial is always fitted exactly.
  bool must_fit = false;
};

/// Scores every trial of a step from the current fit, without a fit per
/// trial. An orthonormal basis Q of the selected columns (modified
/// Gram-Schmidt, re-orthogonalized once) scores an add of column c by
/// the SSE left once c's remainder u = (I - QQ')x_c is projected out of
/// the current residual; R^-1 (X = QR) scores a drop of column j as
/// sse + beta_j^2 / [(X'X)^-1]_jj.
class TrialScorer {
 public:
  TrialScorer(const Matrix& candidates, std::span<const double> y)
      : m_(candidates.rows()),
        p_(candidates.cols()),
        cols_(m_ * p_),
        norms_(p_),
        clash_(p_ * p_, false),
        yy_(dot_n(y.data(), y.data(), y.size())),
        u_(m_) {
    for (std::size_t c = 0; c < p_; ++c) {
      double* col = &cols_[c * m_];
      for (std::size_t r = 0; r < m_; ++r) col[r] = candidates(r, c);
      norms_[c] = std::sqrt(dot_n(col, col, m_));
    }
    find_clashes();
  }

  /// Fills `out` with the step's trials: adds of unselected columns,
  /// drops of selected columns not in `forced`.
  void score(const std::vector<std::size_t>& selected,
             std::span<const std::size_t> forced, const OlsFit& fit,
             std::vector<Trial>& out) {
    out.clear();
    const std::size_t k = selected.size();
    // Infinite when the basis breaks down: every trial is then untrusted.
    const double cond = build_basis(selected);
    auto push = [&](Trial t, double sse, double trial_cond,
                    std::size_t terms) {
      t.score = gaussian_aic(sse, m_, terms);
      t.must_fit = !(trial_cond * std::sqrt(yy_ / sse) <= kMaxAmplification) ||
                   !std::isfinite(t.score);
      if (t.must_fit) t.score = -kInf;
      out.push_back(t);
    };

    for (std::size_t c = 0; c < p_; ++c) {
      if (std::binary_search(selected.begin(), selected.end(), c)) continue;
      if (k + 1 >= m_ || !can_join(c, selected)) continue;
      Trial t;
      t.order = c;
      t.column = c;
      t.add = true;
      double sse = kInf;
      double remainder_cond = kInf;
      if (cond < kInf) {
        const double* x = &cols_[c * m_];
        std::copy(x, x + m_, u_.begin());
        project_out(k);
        const double uu = dot_n(u_.data(), u_.data(), m_);
        if (uu > 0.0) {
          remainder_cond = norms_[c] / std::sqrt(uu);
          const double a = dot_n(u_.data(), fit.residuals.data(), m_) / uu;
          sse = 0.0;
          for (std::size_t r = 0; r < m_; ++r) {
            const double w = fit.residuals[r] - a * u_[r];
            sse += w * w;
          }
        }
      }
      push(t, sse, std::max(cond, remainder_cond), k + 1);
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (std::find(forced.begin(), forced.end(), selected[j]) !=
          forced.end()) {
        continue;
      }
      Trial t;
      t.order = p_ + selected[j];
      t.column = selected[j];
      const double b = fit.coefficients[j];
      const double sse = cond < kInf ? fit.sse + b * b / inv_diag_[j] : kInf;
      push(t, sse, cond, k - 1);
    }
  }

 private:
  /// False when column c's pivot can never pass qr_least_squares' floor:
  /// Householder reflections keep a column's norm.
  bool joinable(std::size_t c) const {
    return norms_[c] >= 0.5 * kQrPivotFloor;
  }

  /// False when the exact fit of the selection plus column c is sure to
  /// fail qr_least_squares' pivot floor.
  bool can_join(std::size_t c,
                const std::vector<std::size_t>& selected) const {
    if (!joinable(c)) return false;
    for (std::size_t s : selected) {
      if (clash_[std::min(c, s) * p_ + std::max(c, s)]) return false;
    }
    return true;
  }

  /// Marks the pairs a < b that no fit can hold together. Householder QR
  /// is backward stable column by column (Higham, Thm 19.4): its pivot
  /// for column b is the distance from x_b to the span of the earlier
  /// columns once each column moves by at most g = 10 m p eps of its
  /// norm. The pivot is then at most d + |x_b| (3.2 g + 3 m eps), where
  /// d is the computed distance from x_b to the line of an earlier x_a
  /// (3 m eps covers computing it); under the floor, the fit fails. A
  /// constant feature's rounding residue times another column is such a
  /// tiny exact multiple of that column.
  void find_clashes() {
    const double eps = std::numeric_limits<double>::epsilon();
    const double g = 10.0 * static_cast<double>(m_ * p_) * eps;
    const double margin = 3.2 * g + 3.0 * static_cast<double>(m_) * eps;
    for (std::size_t b = 0; b < p_; ++b) {
      if (!joinable(b) || !(norms_[b] * margin < kQrPivotFloor)) continue;
      const double* xb = &cols_[b * m_];
      for (std::size_t a = 0; a < b; ++a) {
        if (!joinable(a)) continue;
        const double* xa = &cols_[a * m_];
        const double h = dot_n(xa, xb, m_) / dot_n(xa, xa, m_);
        double dd = 0.0;
        for (std::size_t r = 0; r < m_; ++r) {
          const double e = xb[r] - h * xa[r];
          dd += e * e;
        }
        clash_[a * p_ + b] =
            std::sqrt(dd) + norms_[b] * margin < kQrPivotFloor;
      }
    }
  }

  /// Builds Q and the diagonal of (X'X)^-1 for the selected columns, and
  /// returns their column-scaled condition estimate max_j |x_j| *
  /// sqrt([(X'X)^-1]_jj): infinite when the basis breaks down.
  double build_basis(const std::vector<std::size_t>& selected) {
    const std::size_t k = selected.size();
    q_.assign(k * m_, 0.0);
    r_.assign(k * k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      double* v = &q_[i * m_];
      const double* x = &cols_[selected[i] * m_];
      std::copy(x, x + m_, v);
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t j = 0; j < i; ++j) {
          const double* qj = &q_[j * m_];
          const double h = dot_n(qj, v, m_);
          for (std::size_t r = 0; r < m_; ++r) v[r] -= h * qj[r];
          r_[j * k + i] += h;
        }
      }
      const double nv = std::sqrt(dot_n(v, v, m_));
      if (!(nv > 0.0) || !std::isfinite(nv)) return kInf;
      r_[i * k + i] = nv;
      for (std::size_t r = 0; r < m_; ++r) v[r] /= nv;
    }
    // Row j of R^-1 has squared norm [(X'X)^-1]_jj; column l of R^-1
    // solves R z = e_l by back substitution.
    inv_diag_.assign(k, 0.0);
    z_.resize(k);
    for (std::size_t l = 0; l < k; ++l) {
      z_[l] = 1.0 / r_[l * k + l];
      inv_diag_[l] += z_[l] * z_[l];
      for (std::size_t i = l; i-- > 0;) {
        double s = 0.0;
        for (std::size_t t = i + 1; t <= l; ++t) s += r_[i * k + t] * z_[t];
        z_[i] = -s / r_[i * k + i];
        inv_diag_[i] += z_[i] * z_[i];
      }
    }
    double cond = 1.0;
    for (std::size_t j = 0; j < k; ++j) {
      cond = std::max(cond, norms_[selected[j]] * std::sqrt(inv_diag_[j]));
    }
    return std::isfinite(cond) ? cond : kInf;
  }

  /// u <- (I - QQ')u, twice.
  void project_out(std::size_t k) {
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = 0; j < k; ++j) {
        const double* qj = &q_[j * m_];
        const double h = dot_n(qj, u_.data(), m_);
        for (std::size_t r = 0; r < m_; ++r) u_[r] -= h * qj[r];
      }
    }
  }

  std::size_t m_, p_;
  std::vector<double> cols_;   ///< the candidates, column-major
  std::vector<double> norms_;  ///< each candidate column's norm
  std::vector<bool> clash_;    ///< (a, b), a < b: never in one fit
  double yy_;
  std::vector<double> q_;         ///< the basis, one m-row per column
  std::vector<double> r_;         ///< R, k x k row-major
  std::vector<double> inv_diag_;  ///< [(X'X)^-1]_jj
  std::vector<double> z_;
  std::vector<double> u_;
};

}  // namespace

double StepwiseResult::predict(std::span<const double> candidate_row) const {
  TRACON_REQUIRE(!selected.empty(), "predict on empty stepwise model");
  double s = 0.0;
  for (std::size_t t = 0; t < selected.size(); ++t) {
    TRACON_REQUIRE(selected[t] < candidate_row.size(),
                   "candidate row narrower than selection");
    s += fit.coefficients[t] * candidate_row[selected[t]];
  }
  return s;
}

StepwiseResult stepwise_aic(const Matrix& candidates,
                            std::span<const double> y,
                            const StepwiseOptions& opts) {
  TRACON_REQUIRE(candidates.rows() == y.size(), "stepwise shape mismatch");
  TRACON_REQUIRE(!opts.forced.empty(), "stepwise needs forced columns");
  for (std::size_t f : opts.forced)
    TRACON_REQUIRE(f < candidates.cols(), "forced column out of range");
  TRACON_PROF_SCOPE("stats.stepwise.aic");

  std::vector<std::size_t> current(opts.forced);
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());

  auto base = try_fit(candidates, y, current);
  TRACON_REQUIRE(base.has_value(), "forced columns are rank deficient");

  StepwiseResult res;
  res.selected = current;
  res.fit = *base;

  TrialScorer scorer(candidates, y);
  std::vector<Trial> trials;
  std::vector<std::size_t> cols;
  const double guard = kGuardRel * static_cast<double>(candidates.rows());
  for (int step = 0; step < opts.max_steps; ++step) {
    scorer.score(res.selected, opts.forced, res.fit, trials);
    std::sort(trials.begin(), trials.end(),
              [](const Trial& a, const Trial& b) {
                return a.score < b.score ||
                       (a.score == b.score && a.order < b.order);
              });

    // Exact fits in increasing score. The winner is the exhaustive
    // scan's: the lowest exact AIC under the threshold, ties to the
    // earlier trial in scan order.
    double best_aic = res.fit.aic - opts.min_improvement;
    const Trial* best = nullptr;
    std::optional<OlsFit> best_fit;
    for (const Trial& t : trials) {
      if (!t.must_fit && !(t.score <= best_aic + guard)) continue;
      cols.clear();
      for (std::size_t s : res.selected)
        if (t.add || s != t.column) cols.push_back(s);
      if (t.add) {
        cols.insert(std::upper_bound(cols.begin(), cols.end(), t.column),
                    t.column);
      }
      auto f = try_fit(candidates, y, cols);
      if (f && (f->aic < best_aic || (best != nullptr && f->aic == best_aic &&
                                      t.order < best->order))) {
        best_aic = f->aic;
        best = &t;
        best_fit = std::move(f);
      }
    }

    if (best == nullptr) break;  // no move improves AIC
    if (best->add) {
      res.selected.insert(std::upper_bound(res.selected.begin(),
                                           res.selected.end(), best->column),
                          best->column);
    } else {
      res.selected.erase(std::find(res.selected.begin(), res.selected.end(),
                                   best->column));
    }
    res.fit = std::move(*best_fit);
    res.steps_taken = step + 1;
  }
  return res;
}

}  // namespace tracon::stats
