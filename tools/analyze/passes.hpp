// The tracon_analyze pass pipeline. Each pass reads the shared
// Project snapshot and reports through the suppression-aware Reporter;
// rule semantics are documented in analysis.hpp and DESIGN.md
// ("Architecture layers & static analysis").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"

namespace tracon::analyze {

/// True for the .hpp/.cpp files under src/ — the scope of every
/// per-file convention rule.
inline bool is_src_source(const std::string& path) {
  return path.starts_with("src/") &&
         (path.ends_with(".hpp") || path.ends_with(".cpp"));
}

inline bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the bracket closing the one at `open`, or toks.size() when
/// it is unbalanced.
inline std::size_t match_forward(const std::vector<Token>& toks,
                                 std::size_t open, const char* open_text,
                                 const char* close_text) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) ++depth;
    if (is_punct(toks[i], close_text) && --depth == 0) return i;
  }
  return toks.size();
}

/// Module-DAG enforcement plus include-cycle rejection.
void pass_layering(const Project& project, Reporter& reporter);

/// Non-const namespace-scope variables and non-const static locals
/// in src/.
void pass_mutable_global(const Project& project, Reporter& reporter);

/// Nondeterminism sources that the include graph shows can share a
/// translation unit with an emitter.
void pass_determinism_taint(const Project& project, Reporter& reporter);

/// Unguarded mutation of by-reference captures inside parallel_for
/// bodies.
void pass_parallel_discipline(const Project& project, Reporter& reporter);

/// Global RNG / wall-clock reads anywhere in simulation code.
void pass_determinism(const Project& project, Reporter& reporter);

// The per-file src/ conventions (pass_conventions.cpp).
void pass_float_eq(const Project& project, Reporter& reporter);
void pass_iostream(const Project& project, Reporter& reporter);
void pass_pragma_once(const Project& project, Reporter& reporter);
void pass_include_order(const Project& project, Reporter& reporter);
void pass_require_guard(const Project& project, Reporter& reporter);
void pass_metric_name(const Project& project, Reporter& reporter);
void pass_raw_thread(const Project& project, Reporter& reporter);

}  // namespace tracon::analyze
