// transedge-check: repo-native static analysis.
//
// Two check families over src/ (see ARCHITECTURE.md §Static checks):
//   determinism lint  — unordered-container iteration, wall-clock and
//                       ambient-randomness calls
//   layering          — the #include-graph contract
//
// Usage: transedge-check [--root DIR] [--json FILE]
// Exit status 1 when any unsuppressed finding exists.

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "check/check.h"

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: transedge-check [--root DIR] [--json FILE]\n";
      return 2;
    }
  }

  using transedge::check::RunResult;
  RunResult result = transedge::check::RunChecksOnTree(root);

  std::cout << transedge::check::FormatText(result);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "transedge-check: cannot write " << json_path << "\n";
      return 2;
    }
    out << transedge::check::FormatJson(result);
  }

  std::map<std::string, int> by_rule;
  for (const auto& f : result.findings) ++by_rule[f.rule];
  std::cout << "transedge-check: " << result.files_scanned
            << " files scanned, " << result.findings.size() << " finding"
            << (result.findings.size() == 1 ? "" : "s") << ", "
            << result.suppressed.size() << " suppressed by check:allow\n";
  for (const auto& [rule, count] : by_rule) {
    std::cout << "  " << rule << ": " << count << "\n";
  }
  return result.findings.empty() ? 0 : 1;
}
