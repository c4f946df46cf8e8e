// determinism-taint and determinism: the repo's headline contract is
// that every run replays bit-identically from its seed, so the bytes
// the system emits (metrics/trace/series/decision-log exports in
// src/obs, traces in src/replay, stored runs in src/runstore, migration
// plans in src/migrate) must never be downstream of a nondeterminism
// source. Both rules read one source catalog.
//
// determinism-taint catalogs sources anywhere in src/ and uses the
// include graph to decide whether each one can share a translation
// unit with an emitter — if it can, the tainted value has a
// compile-time path into reproducible output and the finding names
// the witness TU and emitter.
//
// determinism is the directory rule: simulation code
// (src/{sim,virt,sched,obs,migrate,replay,runstore}) must not read a
// global RNG, wall clock, environment variable or thread identity at
// all, even in a file no emitter TU includes today. Its one exemption
// is src/obs/scope_timer, the opt-in wall-clock profiler whose output
// never feeds the deterministic exports. Iteration-order hazards are
// left to determinism-taint: they only matter where bytes are emitted.
//
// Source catalog:
//   * global RNG / entropy: rand, srand, drand48, lrand48, mrand48,
//     rand_r, random (call syntax), std::random_device;
//   * wall clocks: time/clock (call syntax), gettimeofday,
//     clock_gettime, localtime, gmtime, timespec_get, ctime, asctime,
//     mktime, strftime, difftime, system_clock, steady_clock,
//     high_resolution_clock;
//   * environment: getenv (call syntax);
//   * iteration-order hazards: std::unordered_{map,set,multimap,
//     multiset} and pointer-keyed std::map/std::set (hash seeds and
//     heap addresses vary run to run);
//   * thread identity: this_thread.
#include "analyze/passes.hpp"

#include <map>
#include <set>

namespace tracon::analyze {

namespace {

/// Sources that only count with call syntax: `time(`, `rand(` — the
/// bare words are too common as fragments of ordinary identifiers'
/// neighbours (struct fields named `time`, locals named `random`).
const std::set<std::string>& call_sources() {
  static const std::set<std::string> kCalls = {
      "rand", "srand",  "drand48", "lrand48", "mrand48",
      "rand_r", "random", "time",  "clock",   "getenv",
  };
  return kCalls;
}

/// Sources where the bare identifier is already damning.
const std::set<std::string>& bare_sources() {
  static const std::set<std::string> kBare = {
      "random_device", "system_clock", "steady_clock",
      "high_resolution_clock", "gettimeofday", "clock_gettime",
      "localtime", "gmtime", "timespec_get", "ctime", "asctime",
      "mktime", "strftime", "difftime", "this_thread",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  return kBare;
}

struct SourceHit {
  std::size_t line = 0;
  std::string what;    ///< the offending spelling, for the message
  bool order = false;  ///< an iteration-order hazard, not a value source
};

/// True when the first template argument after `map<`/`set<` ends in
/// `*` — iteration order of a pointer-keyed ordered container is heap
/// layout, not data.
bool pointer_keyed(const std::vector<Token>& toks, std::size_t open) {
  std::size_t depth = 1;
  bool last_was_star = false;
  for (std::size_t i = open + 1; i < toks.size() && depth > 0; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++depth;
      if (t.text == ">") {
        --depth;
        if (depth == 0) return last_was_star;
        continue;
      }
      if (t.text == "," && depth == 1) return last_was_star;
      last_was_star = t.text == "*";
      continue;
    }
    last_was_star = false;
  }
  return false;
}

std::vector<SourceHit> scan_sources(const std::vector<Token>& toks) {
  std::vector<SourceHit> hits;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const bool member_access =
        prev && prev->kind == TokKind::kPunct &&
        (prev->text == "." || prev->text == "->");
    if (bare_sources().count(t.text) && !member_access) {
      hits.push_back({t.line, t.text, t.text.starts_with("unordered_")});
      continue;
    }
    // An identifier directly before (other than `return`) makes this a
    // declarator — `double clock();` declares a method, not a call.
    const bool declarator =
        prev && prev->kind == TokKind::kIdentifier && prev->text != "return";
    if (call_sources().count(t.text) && !member_access && !declarator &&
        next && next->kind == TokKind::kPunct && next->text == "(") {
      hits.push_back({t.line, t.text + "()"});
      continue;
    }
    if ((t.text == "map" || t.text == "set") && next &&
        next->kind == TokKind::kPunct && next->text == "<" &&
        pointer_keyed(toks, i + 1)) {
      hits.push_back({t.line, "pointer-keyed std::" + t.text, true});
    }
  }
  return hits;
}

/// The determinism rule's directories, minus the profiler.
bool determinism_scope(const std::string& path) {
  if (!is_src_source(path) || path.starts_with("src/obs/scope_timer")) {
    return false;
  }
  for (const char* dir : {"src/sim/", "src/virt/", "src/sched/", "src/obs/",
                          "src/migrate/", "src/replay/", "src/runstore/"}) {
    if (path.starts_with(dir)) return true;
  }
  return false;
}

}  // namespace

void pass_determinism(const Project& project, Reporter& reporter) {
  const std::vector<FileIndex>& files = project.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!determinism_scope(files[i].path)) continue;
    for (const SourceHit& hit : scan_sources(files[i].ts.tokens)) {
      if (hit.order) continue;
      reporter.report(i, hit.line, "determinism",
                      "global RNG / wall-clock call in simulation code; "
                      "thread a seeded tracon::Rng or simulated time "
                      "through instead");
    }
  }
}

void pass_determinism_taint(const Project& project, Reporter& reporter) {
  const std::vector<FileIndex>& files = project.files();
  const IncludeGraph& graph = project.graph();

  // Emitters: the modules whose output bytes are contractually stable.
  std::vector<bool> is_emitter(files.size(), false);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& m = files[i].module;
    is_emitter[i] = files[i].path.rfind("src/", 0) == 0 &&
                    (m == "obs" || m == "replay" || m == "runstore" ||
                     m == "migrate");
  }

  // For every translation unit, the closure and whether it reaches an
  // emitter; then invert into "which emitter-reaching TUs contain file
  // F". TU roots are .cpp files anywhere in the project — a tainted
  // header is a problem wherever it gets compiled.
  struct Witness {
    std::size_t tu;
    std::size_t emitter;
  };
  std::map<std::size_t, Witness> witness_for;  // file -> smallest witness
  for (std::size_t tu = 0; tu < files.size(); ++tu) {
    const std::string& p = files[tu].path;
    if (p.size() < 4 || p.compare(p.size() - 4, 4, ".cpp") != 0) continue;
    std::vector<std::size_t> closure = graph.reachable(tu);
    std::size_t emitter = files.size();
    for (std::size_t member : closure) {
      if (is_emitter[member]) {
        emitter = member;  // closure is sorted: first hit is smallest
        break;
      }
    }
    if (emitter == files.size()) continue;
    for (std::size_t member : closure) {
      auto it = witness_for.find(member);
      // Files are sorted by path, so the smallest tu index is also the
      // lexicographically smallest witness path.
      if (it == witness_for.end()) {
        witness_for.emplace(member, Witness{tu, emitter});
      }
    }
  }

  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].path.rfind("src/", 0) != 0) continue;
    auto wit = witness_for.find(i);
    if (wit == witness_for.end()) continue;  // never meets an emitter
    for (const SourceHit& hit : scan_sources(files[i].ts.tokens)) {
      reporter.report(
          i, hit.line, "determinism-taint",
          "nondeterminism source '" + hit.what + "' reaches emitter '" +
              files[wit->second.emitter].path +
              "' through translation unit '" +
              files[wit->second.tu].path +
              "'; thread a seeded tracon::Rng / virtual clock / "
              "ordered container through instead");
    }
  }
}

}  // namespace tracon::analyze
