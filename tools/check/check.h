#ifndef TRANSEDGE_TOOLS_CHECK_CHECK_H_
#define TRANSEDGE_TOOLS_CHECK_CHECK_H_

#include <map>
#include <string>

#include "check/report.h"
#include "check/source.h"

namespace transedge::check {

/// Loads and lexes every `.h`/`.cc` file under `root`/src, keyed by
/// repo-relative path in deterministic (sorted) order.
std::map<std::string, SourceFile> LoadTree(const std::string& root);

/// Runs both check families (determinism lint, layering) over a loaded
/// tree and returns the canonicalized result.
RunResult RunChecks(const std::map<std::string, SourceFile>& files);

/// Convenience: LoadTree + RunChecks.
RunResult RunChecksOnTree(const std::string& root);

}  // namespace transedge::check

#endif  // TRANSEDGE_TOOLS_CHECK_CHECK_H_
