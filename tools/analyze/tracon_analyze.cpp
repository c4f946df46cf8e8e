// tracon_analyze — static analysis for the TRACON tree.
//
// Usage: tracon_analyze [REPO_ROOT] [options]
//   REPO_ROOT            tree to scan (default: current directory);
//                        scans REPO_ROOT/{src,tools,bench,tests}
//   --rule NAME          run only this rule (repeatable)
//   --json FILE          also write the SARIF-lite JSON report to FILE
//                        ("-" for stdout instead of the text report)
//   --list-rules         print the rule catalog and exit
//   -h, --help           this text
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: tracon_analyze [REPO_ROOT] [--rule NAME]... [--json FILE]"
        " [--list-rules]\n"
        "Static analysis: the layering, mutable-global, determinism-taint\n"
        "and parallel-discipline passes plus the src/ conventions (see\n"
        "--list-rules). Suppress a finding with a comment on the same line\n"
        "or in the comment block directly above it:\n"
        "  // TRACON_ANALYZE_ALLOW(rule): reason\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::vector<std::string> rules;
  bool root_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--list-rules") {
      for (const auto& rule : tracon::analyze::rule_catalog()) {
        std::cout << rule.name << "  " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--rule") {
      if (i + 1 >= argc) {
        std::cerr << "tracon_analyze: --rule needs a name\n";
        return 2;
      }
      rules.push_back(argv[++i]);
      continue;
    }
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "tracon_analyze: --json needs a file\n";
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tracon_analyze: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
    if (root_set) {
      std::cerr << "tracon_analyze: more than one root given\n";
      return 2;
    }
    root = arg;
    root_set = true;
  }

  for (const std::string& rule : rules) {
    bool known = false;
    for (const auto& info : tracon::analyze::rule_catalog()) {
      known = known || info.name == rule;
    }
    if (!known) {
      std::cerr << "tracon_analyze: unknown rule '" << rule
                << "' (see --list-rules)\n";
      return 2;
    }
  }

  std::vector<tracon::analyze::SourceFile> sources =
      tracon::analyze::load_tree(root);
  if (sources.empty()) {
    std::cerr << "tracon_analyze: no sources under '" << root
              << "' (expected src/, tools/, bench/, tests/)\n";
    return 2;
  }

  tracon::analyze::Project project(std::move(sources));
  tracon::analyze::AnalysisResult result =
      tracon::analyze::run_passes(project, rules);

  if (json_path == "-") {
    std::cout << tracon::analyze::render_json(result);
  } else {
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::binary);
      if (!out) {
        std::cerr << "tracon_analyze: cannot write '" << json_path << "'\n";
        return 2;
      }
      out << tracon::analyze::render_json(result);
    }
    std::cout << tracon::analyze::render_text(result);
  }
  return result.findings.empty() ? 0 : 1;
}
