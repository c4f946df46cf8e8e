#include "stats/stepwise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "core/tracon.hpp"
#include "model/standardize.hpp"
#include "stats/polynomial.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::stats {
namespace {

// ---- Reference: the exhaustive scan ----------------------------------
//
// stepwise_aic as it was before trials were scored from the current fit:
// every add and drop is a fresh OLS fit. stepwise_aic must pick the same
// move at every step and return the same bits.

std::optional<OlsFit> reference_try_fit(const Matrix& candidates,
                                        std::span<const double> y,
                                        const std::vector<std::size_t>& cols) {
  if (cols.empty() || cols.size() >= candidates.rows()) return std::nullopt;
  try {
    Matrix x = candidates.select_columns(cols);
    return ols_fit(x, y);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

StepwiseResult reference_stepwise(const Matrix& candidates,
                                  std::span<const double> y,
                                  const StepwiseOptions& opts) {
  TRACON_REQUIRE(candidates.rows() == y.size(), "stepwise shape mismatch");
  TRACON_REQUIRE(!opts.forced.empty(), "stepwise needs forced columns");
  for (std::size_t f : opts.forced)
    TRACON_REQUIRE(f < candidates.cols(), "forced column out of range");

  std::vector<std::size_t> current(opts.forced);
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());

  auto base = reference_try_fit(candidates, y, current);
  TRACON_REQUIRE(base.has_value(), "forced columns are rank deficient");

  StepwiseResult res;
  res.selected = current;
  res.fit = *base;

  auto is_selected = [&](std::size_t c) {
    return std::binary_search(res.selected.begin(), res.selected.end(), c);
  };
  auto is_forced = [&](std::size_t c) {
    return std::find(opts.forced.begin(), opts.forced.end(), c) !=
           opts.forced.end();
  };

  for (int step = 0; step < opts.max_steps; ++step) {
    double best_aic = res.fit.aic - opts.min_improvement;
    std::optional<std::vector<std::size_t>> best_cols;
    std::optional<OlsFit> best_fit;

    // Try adding each unselected column.
    for (std::size_t c = 0; c < candidates.cols(); ++c) {
      if (is_selected(c)) continue;
      std::vector<std::size_t> trial = res.selected;
      trial.insert(std::upper_bound(trial.begin(), trial.end(), c), c);
      if (auto f = reference_try_fit(candidates, y, trial);
          f && f->aic < best_aic) {
        best_aic = f->aic;
        best_cols = std::move(trial);
        best_fit = std::move(f);
      }
    }
    // Try removing each non-forced selected column.
    for (std::size_t c : res.selected) {
      if (is_forced(c)) continue;
      std::vector<std::size_t> trial;
      trial.reserve(res.selected.size() - 1);
      for (std::size_t s : res.selected)
        if (s != c) trial.push_back(s);
      if (auto f = reference_try_fit(candidates, y, trial);
          f && f->aic < best_aic) {
        best_aic = f->aic;
        best_cols = std::move(trial);
        best_fit = std::move(f);
      }
    }

    if (!best_cols) break;  // no move improves AIC
    res.selected = std::move(*best_cols);
    res.fit = std::move(*best_fit);
    res.steps_taken = step + 1;
  }
  return res;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Empty when stepwise_aic returns the reference's selection and every
/// bit of its fit; otherwise what differs.
std::string compare_to_reference(const StepwiseResult& got,
                                 const StepwiseResult& want) {
  std::string diff;
  if (got.selected != want.selected) diff += " selected";
  if (got.steps_taken != want.steps_taken) diff += " steps_taken";
  if (!same_bits(got.fit.coefficients, want.fit.coefficients))
    diff += " coefficients";
  if (!same_bits(got.fit.residuals, want.fit.residuals)) diff += " residuals";
  if (!same_bits(got.fit.sse, want.fit.sse)) diff += " sse";
  if (!same_bits(got.fit.aic, want.fit.aic)) diff += " aic";
  if (!same_bits(got.fit.r_squared, want.fit.r_squared)) diff += " r_squared";
  if (got.fit.n != want.fit.n || got.fit.k != want.fit.k) diff += " n/k";
  return diff;
}

/// Builds candidates = degree-2 expansion of 3 features, response
/// depending only on x1 and x2*x3.
struct SyntheticSelection {
  Matrix candidates;
  Vector y;
  PolyBasis basis = PolyBasis::degree2(3);
  std::size_t true_linear = 0, true_interaction = 0;

  explicit SyntheticSelection(double noise) {
    Rng rng(4);
    const std::size_t n = 120;
    Matrix x(n, 3);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform(-1, 1);
      y[i] = 2.0 + 3.0 * x(i, 0) + 4.0 * x(i, 1) * x(i, 2) +
             rng.normal(0.0, noise);
    }
    candidates = basis.expand_rows(x);
    for (std::size_t t = 0; t < basis.num_terms(); ++t) {
      const PolyTerm& term = basis.terms()[t];
      if (term.is_linear() && term.i == 0) true_linear = t;
      if (term.is_quadratic() && term.i == 1 && term.j == 2)
        true_interaction = t;
    }
  }
};

TEST(Stepwise, RecoversTrueSupport) {
  SyntheticSelection s(0.05);
  StepwiseResult res = stepwise_aic(s.candidates, s.y);
  auto has = [&](std::size_t c) {
    return std::find(res.selected.begin(), res.selected.end(), c) !=
           res.selected.end();
  };
  EXPECT_TRUE(has(0));                   // intercept forced
  EXPECT_TRUE(has(s.true_linear));       // x1
  EXPECT_TRUE(has(s.true_interaction));  // x2*x3
  // Parsimony: far fewer terms than candidates.
  EXPECT_LE(res.selected.size(), 6u);
  EXPECT_GT(res.fit.r_squared, 0.98);
}

TEST(Stepwise, PredictsOnCandidateRows) {
  SyntheticSelection s(0.01);
  StepwiseResult res = stepwise_aic(s.candidates, s.y);
  Vector x = {0.5, -0.5, 0.25};
  Vector row = s.basis.expand(x);
  double expected = 2.0 + 3.0 * 0.5 + 4.0 * (-0.5) * 0.25;
  EXPECT_NEAR(res.predict(row), expected, 0.1);
}

TEST(Stepwise, ForcedColumnsKept) {
  SyntheticSelection s(0.05);
  StepwiseOptions opts;
  opts.forced = {0, 5};
  StepwiseResult res = stepwise_aic(s.candidates, s.y, opts);
  EXPECT_TRUE(std::binary_search(res.selected.begin(), res.selected.end(),
                                 std::size_t{5}));
}

TEST(Stepwise, IgnoresRankDeficientCandidates) {
  // Duplicate a column; selection must not pick both copies.
  SyntheticSelection s(0.05);
  Matrix cand(s.candidates.rows(), s.candidates.cols() + 1);
  for (std::size_t r = 0; r < cand.rows(); ++r) {
    for (std::size_t c = 0; c < s.candidates.cols(); ++c)
      cand(r, c) = s.candidates(r, c);
    cand(r, s.candidates.cols()) = s.candidates(r, s.true_linear);
  }
  StepwiseResult res = stepwise_aic(cand, s.y);
  bool orig = std::binary_search(res.selected.begin(), res.selected.end(),
                                 s.true_linear);
  bool dup = std::binary_search(res.selected.begin(), res.selected.end(),
                                s.candidates.cols());
  EXPECT_TRUE(orig != dup || !dup);  // never both
  EXPECT_GT(res.fit.r_squared, 0.98);
}

TEST(Stepwise, BetterAicThanFullModelOrEqual) {
  SyntheticSelection s(0.3);
  StepwiseResult res = stepwise_aic(s.candidates, s.y);
  OlsFit full = ols_fit(s.candidates, s.y);
  EXPECT_LE(res.fit.aic, full.aic + 1e-9);
}

TEST(Stepwise, ShapeAndPreconditionErrors) {
  Matrix cand(5, 2);
  Vector y = {1, 2, 3};
  EXPECT_THROW(stepwise_aic(cand, y), std::invalid_argument);
  Vector y5 = {1, 2, 3, 4, 5};
  StepwiseOptions opts;
  opts.forced = {7};
  EXPECT_THROW(stepwise_aic(cand, y5, opts), std::invalid_argument);
  opts.forced = {};
  EXPECT_THROW(stepwise_aic(cand, y5, opts), std::invalid_argument);
}

TEST(StepwiseResult, PredictOnEmptyModelThrows) {
  StepwiseResult res;
  Vector row = {1.0};
  EXPECT_THROW(res.predict(row), std::invalid_argument);
}

// ---- stepwise_aic is the exhaustive scan ------------------------------

/// One stepwise problem: candidates, response and options.
struct Design {
  Matrix candidates;
  Vector y;
  StepwiseOptions opts;
};

/// A seeded adversarial design: m from 8 to 200 rows, up to 45 columns
/// (sometimes as many as the rows), mixing plain columns with exact and
/// near-collinear copies, constants, columns whose norms straddle
/// qr_least_squares' 1e-13 pivot floor, rounding residue (a constant
/// minus its float mean, times another column, as a constant feature
/// standardizes to), products and zeros. Responses are sparse with
/// noise, exact fits (SSE at gaussian_aic's floor), near-exact fits or
/// pure noise.
Design random_design(std::uint64_t seed) {
  Rng rng(seed);
  const auto m = static_cast<std::size_t>(rng.uniform_int(8, 200));
  const auto max_cols = static_cast<std::int64_t>(std::min<std::size_t>(45, m));
  auto p = static_cast<std::size_t>(rng.uniform_int(1, max_cols));
  if (rng.uniform() < 0.15) {  // as wide as the sample
    p = static_cast<std::size_t>(std::clamp<std::int64_t>(
        static_cast<std::int64_t>(m) + rng.uniform_int(-3, 1), 1, 45));
  }
  Matrix x(m, p);
  auto earlier = [&](std::size_t c) { return c == 0 ? 0 : rng.index(c); };
  for (std::size_t c = 0; c < p; ++c) {
    const std::size_t e = earlier(c);
    const std::size_t kind = c == 0 ? 0 : rng.index(10);
    const double scale = std::pow(10.0, rng.uniform(-2.0, 2.0));
    double sq = 0.0;
    for (std::size_t r = 0; r < m; ++r) sq += x(r, e) * x(r, e);
    const double rms = std::sqrt(sq / static_cast<double>(m));
    switch (kind) {
      case 0:  // intercept
        for (std::size_t r = 0; r < m; ++r) x(r, c) = 1.0;
        break;
      case 1:
      case 2:
        for (std::size_t r = 0; r < m; ++r)
          x(r, c) = scale * rng.normal(0.0, 1.0) + rng.uniform(-1.0, 1.0);
        break;
      case 3:  // exact copy
        for (std::size_t r = 0; r < m; ++r) x(r, c) = x(r, e);
        break;
      case 4:  // near-collinear copy
        for (std::size_t r = 0; r < m; ++r)
          x(r, c) = x(r, e) + 1e-9 * rms * rng.normal(0.0, 1.0);
        break;
      case 5: {  // constant
        const double k = rng.uniform(-5.0, 5.0);
        for (std::size_t r = 0; r < m; ++r) x(r, c) = k;
        break;
      }
      case 6: {  // norm between 1e-14 and 1e-11
        const double norm = std::pow(10.0, rng.uniform(-14.0, -11.0));
        double s2 = 0.0;
        for (std::size_t r = 0; r < m; ++r) {
          x(r, c) = rng.normal(0.0, 1.0);
          s2 += x(r, c) * x(r, c);
        }
        for (std::size_t r = 0; r < m; ++r) x(r, c) *= norm / std::sqrt(s2);
        break;
      }
      case 7: {  // rounding residue times another column
        const double k = rng.uniform(0.1, 1000.0);
        double mean = 0.0;
        for (std::size_t r = 0; r < m; ++r) mean += k;
        mean /= static_cast<double>(m);
        const double delta = k - mean;
        for (std::size_t r = 0; r < m; ++r) x(r, c) = delta * x(r, e);
        break;
      }
      case 8: {  // product of two earlier columns
        const std::size_t f = earlier(c);
        for (std::size_t r = 0; r < m; ++r) x(r, c) = x(r, e) * x(r, f);
        break;
      }
      default:  // zero
        break;
    }
  }

  Design d;
  d.y.assign(m, 0.0);
  // 0: sparse plus noise, 1: exact fit, 2: pure noise, 3: near-exact fit.
  const std::size_t mode = rng.index(4);
  const double offset =
      mode == 1 ? 0.0 : std::pow(10.0, rng.uniform(0.0, 3.0));
  const double noise = mode == 1   ? 0.0
                       : mode == 3 ? 1e-8
                                   : std::pow(10.0, rng.uniform(-4.0, 1.0));
  const std::size_t support =
      mode == 2 ? 0 : 1 + rng.index(std::min<std::size_t>(p, 6));
  // Exact and near-exact fits also come at large scales, where rounding
  // lifts an exact fit's SSE off gaussian_aic's floor.
  const double response_scale =
      mode == 1 || mode == 3 ? std::pow(10.0, rng.uniform(0.0, 7.0)) : 1.0;
  for (std::size_t s = 0; s < support; ++s) {
    const std::size_t c = rng.index(p);
    const double beta = (rng.uniform() < 0.5 ? -1.0 : 1.0) * response_scale *
                        std::pow(10.0, rng.uniform(-2.0, 2.0));
    for (std::size_t r = 0; r < m; ++r) d.y[r] += beta * x(r, c);
  }
  for (std::size_t r = 0; r < m; ++r)
    d.y[r] += offset + noise * rng.normal(0.0, 1.0);

  const double forced = rng.uniform();
  if (forced < 0.1 && p > 1) {
    d.opts.forced = {0, 1 + rng.index(p - 1)};
  } else if (forced < 0.2) {
    d.opts.forced = {rng.index(p)};
  }
  if (rng.uniform() < 0.15) {
    d.opts.max_steps = static_cast<int>(rng.uniform_int(1, 3));
  }
  d.candidates = std::move(x);
  return d;
}

struct Tally {
  int compared = 0;
  int reference_threw = 0;
};

void expect_matches_reference(const Design& d, const std::string& name,
                              Tally& tally) {
  std::optional<StepwiseResult> want;
  try {
    want = reference_stepwise(d.candidates, d.y, d.opts);
  } catch (const std::exception&) {
    ++tally.reference_threw;
    return;
  }
  ++tally.compared;
  const StepwiseResult got = stepwise_aic(d.candidates, d.y, d.opts);
  const std::string diff = compare_to_reference(got, *want);
  EXPECT_TRUE(diff.empty()) << name << " differs from the exhaustive scan in"
                            << diff;
}

TEST(Stepwise, MatchesExhaustiveScanOnAdversarialDesigns) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    expect_matches_reference(random_design(seed),
                             "design " + std::to_string(seed), tally);
  }
  RecordProperty("compared", tally.compared);
  RecordProperty("reference_threw", tally.reference_threw);
  // The reference throws when a design's forced columns cannot be
  // fitted (and, in paranoid builds, on a non-finite fit); most designs
  // must be compared.
  EXPECT_GE(tally.compared, 1800) << tally.reference_threw
                                  << " designs skipped";
}

/// The paper set-up's 64 stepwise problems: each benchmark's training
/// set (paper testbed, seed 42) expanded as LM, NLM, NLM-log and
/// NLM-noDom0 expand it, for both responses.
TEST(Stepwise, MatchesExhaustiveScanOnPaperDesigns) {
  core::Tracon system;
  const auto& apps = workload::paper_benchmarks();
  system.register_applications(apps);
  struct Family {
    const char* name;
    std::size_t degree;
    std::vector<std::size_t> active;
    bool log_response;
  };
  const Family families[] = {{"LM", 1, {}, false},
                             {"NLM", 2, {}, false},
                             {"NLM-log", 2, {}, true},
                             {"NLM-noDom0", 2, {0, 2, 3, 4, 6, 7}, false}};
  Tally tally;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const model::TrainingSet& data = system.training_set(a);
    const Matrix full = data.feature_matrix();
    for (const Family& fam : families) {
      const Matrix x =
          fam.active.empty() ? full : full.select_columns(fam.active);
      const Matrix z = model::Standardizer::fit(x).apply_rows(x);
      const PolyBasis basis = fam.degree == 1
                                  ? PolyBasis::degree1(x.cols())
                                  : PolyBasis::degree2(x.cols());
      for (model::Response r :
           {model::Response::kRuntime, model::Response::kIops}) {
        Design d;
        d.candidates = basis.expand_rows(z);
        d.y = data.response_vector(r);
        if (fam.log_response) {
          for (double& v : d.y) v = std::log(std::max(v, 1e-6));
        }
        expect_matches_reference(d,
                                 apps[a].name + " " + fam.name + " " +
                                     model::response_name(r),
                                 tally);
      }
    }
  }
  EXPECT_EQ(tally.compared, 64);
}

}  // namespace
}  // namespace tracon::stats
