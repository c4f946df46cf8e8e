// The per-file src/ conventions: project rules no generic tool knows
// about, each a scan of one file's token stream.
//
//   float-eq       raw ==/!= against floating-point literals outside
//                  src/stats (numeric kernels own their exact-zero
//                  checks and test tolerances).
//   iostream       library code never prints through iostream: results
//                  leave through its API and the obs exporters.
//   pragma-once    every header opens with #pragma once.
//   include-order  a .cpp includes its own header first, then system
//                  headers, then project headers, each block sorted.
//   require-guard  out-of-line constructors taking arguments validate
//                  them with TRACON_REQUIRE (or carry an allow tag).
//   metric-name    metric/scope/event name literals passed to
//                  counter()/gauge()/histogram()/scope()/
//                  TRACON_PROF_SCOPE/track_accuracy are dotted
//                  snake_case paths ("sched.mios.decisions"), checked
//                  by the same obs::valid_metric_name the registries
//                  apply at run time.
//   raw-thread     raw threading primitives (std::thread, std::async,
//                  mutexes, condition variables, atomics, pthreads and
//                  their headers) are quarantined to src/util/ (the
//                  worker pool), src/sim/shard_* (the
//                  sharded runner), and src/obs/scope_timer (the
//                  profiler's registration lock). Everything else in
//                  src/ stays single-threaded per shard so same-seed
//                  runs export identical bytes at any --threads.
//
// Scope: .hpp/.cpp files under src/. Seeded violations live in
// tests/test_analyze.cpp.
#include "analyze/passes.hpp"

#include <set>

#include "obs/metrics.hpp"

namespace tracon::analyze {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// Calls `check(index, file)` for every src/ .hpp/.cpp file.
template <typename Check>
void for_each_src_file(const Project& project, Check check) {
  const std::vector<FileIndex>& files = project.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (is_src_source(files[i].path)) check(i, files[i]);
  }
}

/// A floating-point literal: decimal point or decimal exponent. Hex
/// literals (0x1E) are integers no matter what letters they contain;
/// plain integers (slot counts, iteration indices) are fine.
bool is_float_literal(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return false;
  }
  return s.find_first_of(".eE") != std::string::npos;
}

struct Include {
  std::size_t line = 0;
  bool system = false;  // <...> vs "..."
  std::string path;
};

std::vector<Include> includes_of(const std::vector<Token>& toks) {
  std::vector<Include> incs;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_punct(toks[i], "#") || !toks[i].directive ||
        !is_ident(toks[i + 1], "include")) {
      continue;
    }
    const Token& path = toks[i + 2];
    if (path.kind == TokKind::kHeaderName || path.kind == TokKind::kString) {
      incs.push_back(
          {toks[i].line, path.kind == TokKind::kHeaderName, path.text});
    }
  }
  return incs;
}

}  // namespace

void pass_float_eq(const Project& project, Reporter& reporter) {
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    if (file.path.starts_with("src/stats/")) return;
    const std::vector<Token>& toks = file.ts.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_punct(toks[i], "==") && !is_punct(toks[i], "!=")) continue;
      std::size_t r = i + 1;
      if (r < toks.size() &&
          (is_punct(toks[r], "-") || is_punct(toks[r], "+"))) {
        ++r;
      }
      if ((i > 0 && is_float_literal(toks[i - 1])) ||
          (r < toks.size() && is_float_literal(toks[r]))) {
        reporter.report(f, toks[i].line, "float-eq",
                        "raw ==/!= against a floating-point literal; compare "
                        "against a tolerance or restructure the branch");
      }
    }
  });
}

void pass_iostream(const Project& project, Reporter& reporter) {
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    const std::vector<Token>& toks = file.ts.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const bool header =
          toks[i].kind == TokKind::kHeaderName && toks[i].text == "iostream";
      const bool stream =
          is_ident(toks[i], "std") && i + 2 < toks.size() &&
          is_punct(toks[i + 1], "::") &&
          (is_ident(toks[i + 2], "cout") || is_ident(toks[i + 2], "cerr") ||
           is_ident(toks[i + 2], "cin"));
      if (header || stream) {
        reporter.report(f, toks[i].line, "iostream",
                        "library code must not print through iostream; "
                        "return results or export them through obs");
      }
    }
  });
}

void pass_pragma_once(const Project& project, Reporter& reporter) {
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    const std::vector<Token>& toks = file.ts.tokens;
    if (!file.path.ends_with(".hpp") || toks.empty()) return;
    // The first line of code must be exactly `#pragma once`.
    const std::size_t line = toks[0].line;
    const bool ok = toks.size() >= 3 && is_punct(toks[0], "#") &&
                    is_ident(toks[1], "pragma") && is_ident(toks[2], "once") &&
                    toks[2].line == line &&
                    (toks.size() == 3 || toks[3].line != line);
    if (!ok) {
      reporter.report(f, line, "pragma-once",
                      "header must open with #pragma once");
    }
  });
}

void pass_include_order(const Project& project, Reporter& reporter) {
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    const std::vector<Include> incs = includes_of(file.ts.tokens);
    if (incs.empty()) return;
    auto report = [&](const Include& inc, const std::string& msg) {
      reporter.report(f, inc.line, "include-order", msg);
    };

    std::size_t first = 0;
    if (file.path.ends_with(".cpp")) {
      // src/<module>/<stem>.cpp pairs with "<module>/<stem>.hpp".
      std::string own = file.path.substr(4);
      own.replace(own.size() - 4, 4, ".hpp");
      for (std::size_t i = 1; i < incs.size(); ++i) {
        if (!incs[i].system && incs[i].path == own) {
          report(incs[0], "own header \"" + own + "\" must be included first");
          break;
        }
      }
      if (!incs[0].system && incs[0].path == own) first = 1;
    }

    bool seen_project = false;
    std::string prev_system, prev_project;
    for (std::size_t i = first; i < incs.size(); ++i) {
      const Include& inc = incs[i];
      if (inc.system) {
        if (seen_project) {
          report(inc, "system include <" + inc.path +
                          "> after project includes; keep <...> first");
        } else if (!prev_system.empty() && inc.path < prev_system) {
          report(inc, "system includes not in alphabetical order (<" +
                          inc.path + "> after <" + prev_system + ">)");
        }
        prev_system = inc.path;
      } else {
        if (!prev_project.empty() && inc.path < prev_project) {
          report(inc, "project includes not in alphabetical order (\"" +
                          inc.path + "\" after \"" + prev_project + "\")");
        }
        seen_project = true;
        prev_project = inc.path;
      }
    }
  });
}

/// Finds out-of-line constructor definitions `X::X(args...)` with a
/// non-empty argument list and requires TRACON_REQUIRE in the body.
void pass_require_guard(const Project& project, Reporter& reporter) {
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    if (!file.path.ends_with(".cpp")) return;
    const std::vector<Token>& toks = file.ts.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier ||
          !is_punct(toks[i + 1], "::") || toks[i + 2].text != toks[i].text ||
          toks[i + 2].kind != TokKind::kIdentifier ||
          !is_punct(toks[i + 3], "(")) {
        continue;
      }
      const std::size_t open = i + 3;
      const std::size_t close = match_forward(toks, open, "(", ")");
      if (close == toks.size() || close == open + 1 ||
          (close == open + 2 && is_ident(toks[open + 1], "void"))) {
        continue;
      }
      // The body is the first `{` at paren depth zero; `= default`,
      // `= delete`, and plain declarations (next `;`) have none.
      std::size_t body = toks.size();
      int depth = 0;
      for (std::size_t p = close + 1; p < toks.size(); ++p) {
        if (is_punct(toks[p], "(")) ++depth;
        if (is_punct(toks[p], ")")) --depth;
        if (depth != 0) continue;
        if (is_punct(toks[p], ";") || is_punct(toks[p], "=")) break;
        if (is_punct(toks[p], "{")) {
          body = p;
          break;
        }
      }
      if (body == toks.size()) continue;
      const std::size_t end = match_forward(toks, body, "{", "}");
      bool guarded = false;
      for (std::size_t p = body; p < end && !guarded; ++p) {
        guarded = toks[p].kind == TokKind::kIdentifier &&
                  toks[p].text.starts_with("TRACON_REQUIRE");
      }
      if (!guarded) {
        reporter.report(f, toks[i].line, "require-guard",
                        "constructor " + toks[i].text +
                            " takes arguments but never validates them "
                            "with TRACON_REQUIRE");
      }
    }
  });
}

/// Registration sites take the name as a string-literal first argument.
void pass_metric_name(const Project& project, Reporter& reporter) {
  static const std::set<std::string> kSites = {
      "counter", "gauge", "histogram", "scope", "track_accuracy",
      "TRACON_PROF_SCOPE",
  };
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    const std::vector<Token>& toks = file.ts.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier ||
          kSites.count(toks[i].text) == 0 || !is_punct(toks[i + 1], "(") ||
          toks[i + 2].kind != TokKind::kString ||
          obs::valid_metric_name(toks[i + 2].text)) {
        continue;
      }
      reporter.report(f, toks[i].line, "metric-name",
                      "metric/scope/event name \"" + toks[i + 2].text +
                          "\" is not a dotted snake_case path");
    }
  });
}

void pass_raw_thread(const Project& project, Reporter& reporter) {
  static const std::set<std::string> kPrimitives = {
      "thread",       "jthread",     "async",
      "mutex",        "recursive_mutex",
      "shared_mutex", "timed_mutex", "condition_variable",
      "condition_variable_any",      "atomic",
  };
  static const std::set<std::string> kHeaders = {
      "thread", "mutex", "shared_mutex", "condition_variable", "atomic",
      "future",
  };
  for_each_src_file(project, [&](std::size_t f, const FileIndex& file) {
    if (file.path.starts_with("src/util/") ||
        file.path.starts_with("src/sim/shard_") ||
        file.path.starts_with("src/obs/scope_timer")) {
      return;
    }
    const std::vector<Token>& toks = file.ts.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      const bool primitive =
          is_ident(t, "std") && i + 2 < toks.size() &&
          is_punct(toks[i + 1], "::") &&
          toks[i + 2].kind == TokKind::kIdentifier &&
          kPrimitives.count(toks[i + 2].text) > 0;
      const bool pthread = t.kind == TokKind::kIdentifier &&
                           t.text.size() > 8 && t.text.starts_with("pthread_");
      const bool header =
          t.kind == TokKind::kHeaderName && kHeaders.count(t.text) > 0;
      if (primitive || pthread || header) {
        reporter.report(f, t.line, "raw-thread",
                        "raw threading primitive outside src/util/ and "
                        "src/sim/shard_*; run work through "
                        "tracon::parallel_for so results stay independent "
                        "of the thread count");
      }
    }
  });
}

}  // namespace tracon::analyze
