#include "stats/polynomial.hpp"

#include "util/error.hpp"

namespace tracon::stats {

PolyBasis PolyBasis::degree1(std::size_t dim) {
  TRACON_REQUIRE(dim > 0, "basis needs at least one feature");
  PolyBasis b(dim);
  b.terms_.push_back({});  // intercept
  for (std::size_t i = 0; i < dim; ++i)
    b.terms_.push_back({static_cast<int>(i), -1});
  return b;
}

PolyBasis PolyBasis::degree2(std::size_t dim) {
  PolyBasis b = degree1(dim);
  for (std::size_t i = 0; i < dim; ++i)
    b.terms_.push_back({static_cast<int>(i), static_cast<int>(i)});
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = i + 1; j < dim; ++j)
      b.terms_.push_back({static_cast<int>(i), static_cast<int>(j)});
  return b;
}

Vector PolyBasis::expand(std::span<const double> x) const {
  TRACON_REQUIRE(x.size() == dim_, "expand input dimension mismatch");
  Vector out;
  out.reserve(terms_.size());
  for (const PolyTerm& t : terms_) {
    if (t.is_intercept()) {
      out.push_back(1.0);
    } else if (t.is_linear()) {
      out.push_back(x[static_cast<std::size_t>(t.i)]);
    } else {
      out.push_back(x[static_cast<std::size_t>(t.i)] *
                    x[static_cast<std::size_t>(t.j)]);
    }
  }
  return out;
}

Matrix PolyBasis::expand_rows(const Matrix& x) const {
  Matrix out(x.rows(), num_terms());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    Vector row = expand(x.row(r));
    for (std::size_t c = 0; c < row.size(); ++c) out(r, c) = row[c];
  }
  return out;
}

std::string PolyBasis::term_name(std::size_t t) const {
  std::vector<std::string> names;
  names.reserve(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    // Appended, not "x" + ...: gcc 12's -Wrestrict misreads the prepend.
    names.emplace_back("x");
    names.back() += std::to_string(i + 1);
  }
  return term_name(t, names);
}

std::string PolyBasis::term_name(
    std::size_t t, const std::vector<std::string>& feature_names) const {
  TRACON_REQUIRE(t < terms_.size(), "term index out of range");
  TRACON_REQUIRE(feature_names.size() == dim_, "feature name count mismatch");
  const PolyTerm& term = terms_[t];
  if (term.is_intercept()) return "1";
  if (term.is_linear()) return feature_names[static_cast<std::size_t>(term.i)];
  if (term.i == term.j)
    return feature_names[static_cast<std::size_t>(term.i)] + "^2";
  return feature_names[static_cast<std::size_t>(term.i)] + "*" +
         feature_names[static_cast<std::size_t>(term.j)];
}

}  // namespace tracon::stats
