#include "check/layering.h"

#include <set>
#include <vector>

namespace transedge::check {

namespace {

/// Band rank per top-level src/ directory. A file may include only
/// headers of equal or lower rank. -1 = unknown directory (unranked).
int BandOf(const std::string& dir) {
  if (dir == "common") return 0;
  if (dir == "crypto" || dir == "txn" || dir == "storage" || dir == "merkle") {
    return 1;
  }
  if (dir == "sim") return 2;
  if (dir == "wire") return 3;
  if (dir == "core") return 4;
  if (dir == "workload") return 5;
  return -1;
}

/// First path component of an src-relative include target
/// ("core/consensus/consensus.h" -> "core").
std::string TopDir(const std::string& path) {
  size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Engine group of an src-relative path, or "" for non-engine files.
std::string EngineGroupOf(const std::string& path) {
  if (path.rfind("core/consensus/", 0) == 0) return "consensus";
  if (path.rfind("core/batch_pipeline.", 0) == 0) return "pipeline";
  if (path.rfind("core/two_pc_coordinator.", 0) == 0) return "two-pc";
  if (path.rfind("core/read_only_service.", 0) == 0) return "read-only";
  if (path.rfind("core/augustus_baseline.", 0) == 0) return "augustus";
  if (path.rfind("core/watch_service.", 0) == 0) return "watch";
  return "";
}

/// core/ headers a core/consensus/ file may include: the NodeContext
/// seam and the engine-independent shared pieces.
bool ConsensusSeamAllowed(const std::string& target) {
  static const std::set<std::string> kAllowed = {
      "core/node_context.h",
      "core/config.h",
      "core/batch_apply.h",
  };
  return target.rfind("core/consensus/", 0) == 0 || kAllowed.count(target) > 0;
}

void Report(const SourceFile& file, const std::string& rule, int line,
            std::string message, RunResult* result) {
  Finding f{file.rel_path(), line, rule, std::move(message)};
  if (file.IsAllowed(rule, line)) {
    std::string reason = "annotated";
    for (const AllowAnnotation& a : file.allows()) {
      if (a.rule == rule && a.line <= line && line - a.line <= 8) {
        reason = a.reason;
      }
    }
    result->AddSuppressed(std::move(f), reason);
  } else {
    result->Add(std::move(f));
  }
}

}  // namespace

void CheckLayering(const std::map<std::string, SourceFile>& files,
                   RunResult* result) {
  // src-relative path ("core/node.h") -> repo-relative key in `files`.
  std::map<std::string, std::string> src_files;
  for (const auto& [rel, file] : files) {
    if (rel.rfind("src/", 0) == 0) src_files[rel.substr(4)] = rel;
  }

  // Edge rules.
  for (const auto& [src_rel, repo_rel] : src_files) {
    const SourceFile& file = files.at(repo_rel);
    const std::string src_dir = TopDir(src_rel);
    const int src_band = BandOf(src_dir);
    const std::string src_engine = EngineGroupOf(src_rel);

    for (const auto& [target, line] : file.quoted_includes()) {
      if (target.rfind("../", 0) == 0 || target.rfind("bench/", 0) == 0 ||
          target.rfind("tests/", 0) == 0 || target.rfind("examples/", 0) == 0) {
        Report(file, "external-include", line,
               "src/ must not include '" + target +
                   "': bench/, tests/, and examples/ sit above the library",
               result);
        continue;
      }
      const std::string tgt_dir = TopDir(target);
      const int tgt_band = BandOf(tgt_dir);
      if (src_band >= 0 && tgt_band >= 0 && tgt_band > src_band) {
        Report(file, "layer-order", line,
               src_dir + "/ (band " + std::to_string(src_band) +
                   ") must not include '" + target + "' (band " +
                   std::to_string(tgt_band) +
                   "): lower layers stay independent of upper layers",
               result);
      }
      const std::string tgt_engine = EngineGroupOf(target);
      if (!src_engine.empty() && !tgt_engine.empty() &&
          src_engine != tgt_engine) {
        Report(file, "engine-isolation", line,
               "engine '" + src_engine + "' must not include '" + target +
                   "' (engine '" + tgt_engine +
                   "'): engines meet only through NodeContext and the "
                   "node's hooks",
               result);
      }
      if (src_engine == "consensus" && tgt_dir == "core" &&
          !ConsensusSeamAllowed(target)) {
        Report(file, "consensus-seam", line,
               "core/consensus/ may only reach the Consensus/NodeContext "
               "seams and shared pieces, not '" +
                   target + "'",
               result);
      }
    }
  }

  // Cycle detection over src/ files (3-color DFS, deterministic order).
  std::map<std::string, int> color;  // 0 = white, 1 = gray, 2 = black.
  std::vector<std::string> stack;
  struct Dfs {
    const std::map<std::string, std::string>& src_files;
    const std::map<std::string, SourceFile>& files;
    std::map<std::string, int>& color;
    std::vector<std::string>& stack;
    RunResult* result;

    void Visit(const std::string& node) {
      color[node] = 1;
      stack.push_back(node);
      const SourceFile& file = files.at(src_files.at(node));
      for (const auto& [target, line] : file.quoted_includes()) {
        auto it = src_files.find(target);
        if (it == src_files.end()) continue;
        int c = color.count(target) ? color[target] : 0;
        if (c == 1) {
          // Found a back edge: report the cycle path once.
          std::string path;
          bool in_cycle = false;
          for (const std::string& n : stack) {
            if (n == target) in_cycle = true;
            if (in_cycle) path += n + " -> ";
          }
          path += target;
          result->Add(Finding{file.rel_path(), line, "include-cycle",
                              "include cycle: " + path});
        } else if (c == 0) {
          Visit(target);
        }
      }
      stack.pop_back();
      color[node] = 2;
    }
  } dfs{src_files, files, color, stack, result};
  for (const auto& [src_rel, repo_rel] : src_files) {
    if (!color.count(src_rel)) dfs.Visit(src_rel);
  }
}

}  // namespace transedge::check
