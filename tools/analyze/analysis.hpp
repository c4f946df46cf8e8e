// tracon_analyze: static analysis for the TRACON tree. It parses — a
// real token stream (tools/analyze/tokenizer.hpp), the project include
// graph (tools/analyze/include_graph.hpp), and a per-file symbol scan —
// and feeds a pass pipeline that enforces the repo's two architectural
// contracts statically:
//
//   layering             the module DAG (util -> obs -> stats/virt ->
//                        workload/monitor -> model -> sched -> sim ->
//                        replay/runstore -> core -> tools) admits no
//                        upward or same-layer cross includes, and the
//                        include graph admits no cycles.
//   mutable-global       non-const namespace-scope variables and
//                        non-const static locals are forbidden in src/
//                        — shared mutable state is how `--threads N`
//                        stops being byte-identical to `--threads 1`.
//   determinism-taint    a nondeterminism source (wall clock, global
//                        RNG, unordered-container iteration order,
//                        pointer-keyed std::map/std::set ordering,
//                        thread identity) anywhere in src/ is an error
//                        when the include graph shows it can share a
//                        translation unit with an emitter (src/obs,
//                        src/replay, src/runstore — the code whose
//                        bytes are contractually reproducible).
//   parallel-discipline  inside every `parallel_for` call site, state
//                        captured by reference must be shard-indexed
//                        (written through `[i]`) or locally declared;
//                        anything else is a cross-shard race that the
//                        determinism CI sweep may or may not catch.
//
// Beside those sit the per-file src/ conventions no generic tool knows
// about (pass_determinism_taint.cpp and pass_conventions.cpp):
//
//   determinism          no global RNG or wall-clock read in simulation
//                        code (src/{sim,virt,sched,obs,migrate,replay,
//                        runstore}), whether or not it reaches an
//                        emitter; src/obs/scope_timer is exempt.
//   float-eq             no ==/!= against floating-point literals
//                        outside src/stats.
//   iostream             library code never prints through iostream.
//   pragma-once          every header opens with #pragma once.
//   include-order        own header first, then <system>, then
//                        "project", each block sorted.
//   require-guard        argument-taking out-of-line constructors
//                        validate with TRACON_REQUIRE.
//   metric-name          metric/scope/event name literals are dotted
//                        snake_case paths.
//   raw-thread           threading primitives stay in src/util/,
//                        src/sim/shard_* and src/obs/scope_timer.
//
// A finding is suppressed by a comment of the form
//
//   // TRACON_ANALYZE_ALLOW(rule): reason
//
// on the same line, or anywhere in the contiguous comment block that
// ends on the line directly above the finding. The reason is
// mandatory: an allow tag without one does not suppress.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze/include_graph.hpp"
#include "analyze/tokenizer.hpp"

namespace tracon::analyze {

struct SourceFile {
  std::string path;  ///< repo-relative, POSIX separators
  std::string content;
};

struct Finding {
  std::string file;
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Parsed, indexed view of a file: tokens, per-line comments, quoted
/// includes, and its module in the layer DAG.
struct FileIndex {
  std::string path;
  std::string module;
  TokenStream ts;
  std::vector<QuotedInclude> includes;
};

/// Immutable project snapshot shared by every pass. Construction
/// tokenizes all files and builds the include graph; files are kept in
/// sorted path order so everything downstream is deterministic.
class Project {
 public:
  explicit Project(std::vector<SourceFile> files);

  const std::vector<FileIndex>& files() const { return files_; }
  const IncludeGraph& graph() const { return graph_; }

  /// Index of `path`, or files().size() when absent.
  std::size_t index_of(const std::string& path) const;

  /// True when a valid TRACON_ANALYZE_ALLOW(rule): reason comment
  /// covers `line` in file `file` (same line, or in the contiguous
  /// comment block ending on the line above).
  bool suppressed(std::size_t file, const std::string& rule,
                  std::size_t line) const;

 private:
  std::vector<FileIndex> files_;
  IncludeGraph graph_;
};

/// Collects findings for the passes, applying suppressions centrally
/// so every rule honors the same allow syntax.
class Reporter {
 public:
  explicit Reporter(const Project& project) : project_(project) {}

  void report(std::size_t file, std::size_t line, const std::string& rule,
              std::string message);

  std::vector<Finding> take_findings();
  std::size_t suppressed_count() const { return suppressed_; }

 private:
  const Project& project_;
  std::vector<Finding> findings_;
  std::size_t suppressed_ = 0;
};

struct RuleInfo {
  std::string name;
  std::string summary;
  void (*run)(const Project& project, Reporter& reporter);
};

/// Every rule, in pipeline order: the four architectural passes, then
/// the per-file src/ conventions.
const std::vector<RuleInfo>& rule_catalog();

struct AnalysisResult {
  std::vector<Finding> findings;  ///< sorted by (file, line, rule, message)
  std::size_t suppressed = 0;
  std::size_t files_scanned = 0;
};

/// Runs every pass (or only `rules`, when non-empty — names as in
/// rule_catalog()) and returns deterministic, sorted results.
AnalysisResult run_passes(const Project& project,
                          const std::vector<std::string>& rules = {});

/// Loads every .hpp/.cpp under root/{src,tools,bench,tests}, sorted.
std::vector<SourceFile> load_tree(const std::filesystem::path& root);

/// Compiler-style diagnostics plus a one-line summary.
std::string render_text(const AnalysisResult& result);

/// SARIF-lite JSON: schema tag, rule catalog, sorted findings, and a
/// summary block. Byte-deterministic for a given tree.
std::string render_json(const AnalysisResult& result);

}  // namespace tracon::analyze
