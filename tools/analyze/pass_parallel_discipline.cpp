// parallel-discipline: the worker-pool contract (util/parallel.hpp)
// says every index of a parallel_for must touch only its own state —
// that is what makes the result independent of the thread count. PR 5
// enforced the perimeter dynamically (CI diffs --threads 1 vs 4) and
// lexically (the raw-thread quarantine); this pass checks
// the call sites themselves. Inside the lambda passed to
// parallel_for, any mutation whose base object was captured by
// reference must be shard-indexed (written through a subscript, e.g.
// states[i].outcome = ...) or declared locally inside the body.
// Everything else — a `total += x`, a `log.push_back(...)` on a shared
// vector — is a cross-shard race, reported at the mutation line.
//
// Scope: every parallel_for call site under src/ (which includes the
// sharded runner, src/sim/shard_*). Seeded violations live in
// tests/test_analyze.cpp.
#include "analyze/passes.hpp"

#include <set>

namespace tracon::analyze {

namespace {

/// Container/atomic member calls that mutate the receiver.
const std::set<std::string>& mutating_methods() {
  static const std::set<std::string> kMut = {
      "push_back", "emplace_back", "pop_back", "insert", "emplace",
      "erase", "clear", "resize", "assign", "store", "fetch_add",
      "fetch_sub", "exchange", "reset", "swap", "append", "merge",
      "push", "pop", "write", "observe", "inc", "add", "set", "record",
  };
  return kMut;
}

std::size_t match_backward(const std::vector<Token>& toks, std::size_t close,
                           const char* open_text, const char* close_text) {
  std::size_t depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(toks[i], close_text)) ++depth;
    if (is_punct(toks[i], open_text)) {
      if (--depth == 0) return i;
    }
  }
  return 0;
}

struct Chain {
  std::string base;         ///< leftmost identifier of the postfix chain
  bool subscripted = false; ///< a [...] appears anywhere in the chain
  std::size_t line = 0;
};

/// Walks left from `end` (inclusive) across a postfix expression
/// (identifiers, ., ->, ::, balanced [] and ()) and returns its base.
Chain walk_chain_left(const std::vector<Token>& toks, std::size_t end) {
  Chain c;
  std::size_t i = end + 1;
  bool expect_name = true;  // next-left token should end a sub-expression
  while (i-- > 0) {
    const Token& t = toks[i];
    if (is_punct(t, "]")) {
      c.subscripted = true;
      std::size_t open = match_backward(toks, i, "[", "]");
      if (open == 0 && !is_punct(toks[0], "[")) return c;
      i = open;
      expect_name = true;
      continue;
    }
    if (is_punct(t, ")")) {
      std::size_t open = match_backward(toks, i, "(", ")");
      if (open == 0 && !is_punct(toks[0], "(")) return c;
      i = open;
      expect_name = true;
      continue;
    }
    if (t.kind == TokKind::kIdentifier && expect_name) {
      c.base = t.text;
      c.line = t.line;
      expect_name = false;
      continue;
    }
    if (t.kind == TokKind::kPunct &&
        (t.text == "." || t.text == "->" || t.text == "::")) {
      expect_name = true;
      continue;
    }
    // (*p).x, *out — a dereference still names the same object.
    if (is_punct(t, "*") && expect_name) continue;
    break;
  }
  return c;
}

/// Walks right from `start` across `ident (:: . -> ident | [..])*`.
Chain walk_chain_right(const std::vector<Token>& toks, std::size_t start,
                       std::size_t limit) {
  Chain c;
  std::size_t i = start;
  while (i < limit && is_punct(toks[i], "*")) ++i;  // ++*it
  if (i >= limit || toks[i].kind != TokKind::kIdentifier) return c;
  c.base = toks[i].text;
  c.line = toks[i].line;
  ++i;
  while (i < limit) {
    if (is_punct(toks[i], "[")) {
      c.subscripted = true;
      i = match_forward(toks, i, "[", "]") + 1;
      continue;
    }
    if (toks[i].kind == TokKind::kPunct &&
        (toks[i].text == "." || toks[i].text == "->" ||
         toks[i].text == "::")) {
      i += 2;
      continue;
    }
    break;
  }
  return c;
}

struct Lambda {
  bool default_ref = false;             ///< [&]
  std::set<std::string> ref_captures;   ///< [&name, ...]
  std::set<std::string> params;
  std::size_t body_begin = 0;           ///< index of `{`
  std::size_t body_end = 0;             ///< index of matching `}`
};

/// Parses the first lambda inside parallel_for's argument list
/// (tokens `open`..`close` = the call parens). Returns false when the
/// argument is not a visible lambda (a named functor — out of reach
/// for this pass).
bool parse_lambda(const std::vector<Token>& toks, std::size_t open,
                  std::size_t close, Lambda* out) {
  std::size_t cap = open + 1;
  while (cap < close && !is_punct(toks[cap], "[")) ++cap;
  if (cap >= close) return false;
  std::size_t cap_end = match_forward(toks, cap, "[", "]");
  if (cap_end >= close) return false;

  for (std::size_t i = cap + 1; i < cap_end; ++i) {
    if (is_punct(toks[i], "&")) {
      if (i + 1 < cap_end && toks[i + 1].kind == TokKind::kIdentifier) {
        out->ref_captures.insert(toks[i + 1].text);
        ++i;
      } else {
        out->default_ref = true;
      }
    }
  }

  std::size_t at = cap_end + 1;
  if (at < close && is_punct(toks[at], "(")) {
    std::size_t params_end = match_forward(toks, at, "(", ")");
    std::size_t last_ident = 0;
    bool have_ident = false;
    for (std::size_t i = at + 1; i < params_end && i < toks.size(); ++i) {
      if (toks[i].kind == TokKind::kIdentifier) {
        last_ident = i;
        have_ident = true;
      }
      if (is_punct(toks[i], ",") && have_ident) {
        out->params.insert(toks[last_ident].text);
        have_ident = false;
      }
    }
    if (have_ident) out->params.insert(toks[last_ident].text);
    at = params_end + 1;
  }
  while (at < close && !is_punct(toks[at], "{")) ++at;
  if (at >= close) return false;
  out->body_begin = at;
  out->body_end = match_forward(toks, at, "{", "}");
  return out->body_end < toks.size();
}

/// Names declared inside the body: an identifier preceded by a
/// type-ish token (identifier, >, *, &) and followed by =, {, ;, or a
/// range-for colon. Over-approximates on purpose — a false "local"
/// only mutes a finding, never invents one.
std::set<std::string> local_declarations(const std::vector<Token>& toks,
                                         std::size_t begin,
                                         std::size_t end) {
  std::set<std::string> locals;
  for (std::size_t i = begin + 1; i + 1 < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const Token& prev = toks[i - 1];
    const Token& next = toks[i + 1];
    const bool typed_before =
        prev.kind == TokKind::kIdentifier ||
        (prev.kind == TokKind::kPunct &&
         (prev.text == ">" || prev.text == "*" || prev.text == "&"));
    const bool declarator_after =
        next.kind == TokKind::kPunct &&
        (next.text == "=" || next.text == "{" || next.text == ";" ||
         next.text == ":");
    if (typed_before && declarator_after) locals.insert(t.text);
  }
  return locals;
}

const char* const kAssignOps[] = {"=",  "+=", "-=", "*=", "/=",
                                  "%=", "&=", "|=", "^="};

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  for (const char* op : kAssignOps) {
    if (t.text == op) return true;
  }
  return false;
}

}  // namespace

void pass_parallel_discipline(const Project& project, Reporter& reporter) {
  for (std::size_t fi = 0; fi < project.files().size(); ++fi) {
    const FileIndex& file = project.files()[fi];
    if (file.path.rfind("src/", 0) != 0) continue;
    const std::vector<Token>& toks = file.ts.tokens;

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier ||
          toks[i].text != "parallel_for" || toks[i].directive) {
        continue;
      }
      if (!is_punct(toks[i + 1], "(")) continue;
      std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close >= toks.size()) continue;

      Lambda lam;
      if (!parse_lambda(toks, i + 1, close, &lam)) continue;
      std::set<std::string> locals =
          local_declarations(toks, lam.body_begin, lam.body_end);

      auto captured_by_ref = [&](const std::string& name) {
        if (lam.ref_captures.count(name)) return true;
        return lam.default_ref && !lam.params.count(name) &&
               !locals.count(name);
      };
      auto check = [&](const Chain& c, const std::string& how) {
        if (c.base.empty() || c.subscripted) return;
        if (lam.params.count(c.base) || locals.count(c.base)) return;
        if (!captured_by_ref(c.base)) return;
        reporter.report(
            fi, c.line, "parallel-discipline",
            "parallel_for body " + how + " '" + c.base +
                "', which is captured by reference but neither "
                "shard-indexed nor local to the body; give each index "
                "its own slot (e.g. " + c.base + "[i]) or justify with "
                "TRACON_ANALYZE_ALLOW");
      };

      for (std::size_t b = lam.body_begin + 1; b < lam.body_end; ++b) {
        const Token& t = toks[b];
        if (is_assign_op(t) && b > 0) {
          check(walk_chain_left(toks, b - 1), "assigns to");
          continue;
        }
        if (t.kind == TokKind::kPunct &&
            (t.text == "++" || t.text == "--")) {
          Chain right = walk_chain_right(toks, b + 1, lam.body_end);
          if (!right.base.empty()) {
            check(right, "increments");
          } else if (b > 0) {
            check(walk_chain_left(toks, b - 1), "increments");
          }
          continue;
        }
        if (t.kind == TokKind::kIdentifier &&
            mutating_methods().count(t.text) && b + 1 < lam.body_end &&
            is_punct(toks[b + 1], "(") && b >= 2 &&
            toks[b - 1].kind == TokKind::kPunct &&
            (toks[b - 1].text == "." || toks[b - 1].text == "->")) {
          check(walk_chain_left(toks, b - 2), "calls mutating method " +
                                                  t.text + "() on");
        }
      }
    }
  }
}

}  // namespace tracon::analyze
