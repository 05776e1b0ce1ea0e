#include "check/check.h"

#include <filesystem>

#include "check/determinism.h"
#include "check/layering.h"

namespace transedge::check {

namespace fs = std::filesystem;

std::map<std::string, SourceFile> LoadTree(const std::string& root) {
  std::map<std::string, SourceFile> files;
  fs::path src = fs::path(root) / "src";
  if (!fs::exists(src)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::string rel =
        fs::relative(entry.path(), fs::path(root)).generic_string();
    SourceFile file;
    if (file.Load(entry.path().string(), rel)) {
      files.emplace(rel, std::move(file));
    }
  }
  return files;
}

RunResult RunChecks(const std::map<std::string, SourceFile>& files) {
  RunResult result;
  result.files_scanned = static_cast<int>(files.size());
  CheckDeterminism(files, &result);
  CheckLayering(files, &result);
  Canonicalize(&result);
  return result;
}

RunResult RunChecksOnTree(const std::string& root) {
  return RunChecks(LoadTree(root));
}

}  // namespace transedge::check
