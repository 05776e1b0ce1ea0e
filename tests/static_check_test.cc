// Meta-test for tools/check: runs the static analysis suite against
// seeded-violation fixture trees so the rules themselves are
// regression-tested, and against the real repo so the tree stays at
// zero unsuppressed findings.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "check/check.h"
#include "check/report.h"

namespace transedge::check {
namespace {

std::map<std::string, int> CountByRule(const RunResult& result) {
  std::map<std::string, int> counts;
  for (const Finding& f : result.findings) ++counts[f.rule];
  return counts;
}

bool HasFinding(const RunResult& result, const std::string& file, int line,
                const std::string& rule) {
  return std::any_of(result.findings.begin(), result.findings.end(),
                     [&](const Finding& f) {
                       return f.file == file && f.line == line &&
                              f.rule == rule;
                     });
}

const std::string kFixtures = TRANSEDGE_CHECK_FIXTURES;

TEST(StaticCheckTest, ViolationsTreeCatchesEverySeededViolation) {
  RunResult result = RunChecksOnTree(kFixtures + "/violations");

  std::map<std::string, int> counts = CountByRule(result);
  EXPECT_EQ(counts["unordered-iter"], 3);
  EXPECT_EQ(counts["malformed-allow"], 1);
  EXPECT_EQ(counts["banned-call"], 3);
  EXPECT_EQ(counts["layer-order"], 1);
  EXPECT_EQ(counts["engine-isolation"], 1);
  EXPECT_EQ(counts["consensus-seam"], 1);
  EXPECT_EQ(counts["external-include"], 2);
  EXPECT_EQ(counts["include-cycle"], 1);
  EXPECT_EQ(result.findings.size(), 13u);
}

TEST(StaticCheckTest, UnorderedIterationFlaggedAtExactSites) {
  RunResult result = RunChecksOnTree(kFixtures + "/violations");

  // Range-for and iterator loop over unordered members.
  EXPECT_TRUE(
      HasFinding(result, "src/core/vstate.cc", 9, "unordered-iter"));
  EXPECT_TRUE(
      HasFinding(result, "src/core/vstate.cc", 12, "unordered-iter"));
  // A reason-less annotation is malformed AND does not suppress.
  EXPECT_TRUE(
      HasFinding(result, "src/core/vstate.cc", 26, "malformed-allow"));
  EXPECT_TRUE(
      HasFinding(result, "src/core/vstate.cc", 27, "unordered-iter"));
}

TEST(StaticCheckTest, AllowAnnotationSuppressesWithReason) {
  RunResult result = RunChecksOnTree(kFixtures + "/violations");

  // The properly annotated loop in CountAllowed must be suppressed, not
  // flagged, and the report must carry the documented justification.
  EXPECT_FALSE(
      HasFinding(result, "src/core/vstate.cc", 20, "unordered-iter"));
  bool found = false;
  for (const RunResult::Suppressed& s : result.suppressed) {
    if (s.finding.file == "src/core/vstate.cc" && s.finding.line == 20) {
      found = true;
      EXPECT_EQ(s.reason, "pure accumulation; order-insensitive.");
    }
  }
  EXPECT_TRUE(found);
}

TEST(StaticCheckTest, BannedCallsFlaggedOutsideSimAndRng) {
  RunResult result = RunChecksOnTree(kFixtures + "/violations");

  EXPECT_TRUE(HasFinding(result, "src/core/clocky.cc", 7, "banned-call"));
  EXPECT_TRUE(HasFinding(result, "src/core/clocky.cc", 12, "banned-call"));
  EXPECT_TRUE(HasFinding(result, "src/core/clocky.cc", 14, "banned-call"));
  // The simulator may consult wall clocks: sim/ is exempt.
  for (const Finding& f : result.findings) {
    EXPECT_NE(f.file, "src/sim/jitter.cc") << f.message;
  }
}

TEST(StaticCheckTest, LayeringEdgesFlaggedAtIncludeSites) {
  RunResult result = RunChecksOnTree(kFixtures + "/violations");

  EXPECT_TRUE(
      HasFinding(result, "src/common/bad_layer.h", 6, "layer-order"));
  EXPECT_TRUE(HasFinding(result, "src/core/batch_pipeline.h", 5,
                         "engine-isolation"));
  EXPECT_TRUE(HasFinding(result, "src/core/consensus/rogue.cc", 3,
                         "consensus-seam"));
  EXPECT_TRUE(
      HasFinding(result, "src/core/evil.cc", 2, "external-include"));
  EXPECT_TRUE(
      HasFinding(result, "src/core/evil.cc", 3, "external-include"));
  EXPECT_TRUE(
      HasFinding(result, "src/core/cyc_b.h", 2, "include-cycle"));
}

TEST(StaticCheckTest, CleanTreeReportsNothing) {
  RunResult result = RunChecksOnTree(kFixtures + "/clean");
  for (const Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
  // The annotated loop in state.cc is the one (visible) suppression.
  EXPECT_EQ(result.suppressed.size(), 1u);
  EXPECT_GT(result.files_scanned, 0);
}

TEST(StaticCheckTest, CheckerOutputIsDeterministic) {
  RunResult a = RunChecksOnTree(kFixtures + "/violations");
  RunResult b = RunChecksOnTree(kFixtures + "/violations");
  EXPECT_EQ(FormatJson(a), FormatJson(b));
  EXPECT_EQ(FormatText(a), FormatText(b));
}

TEST(StaticCheckTest, RealTreeHasZeroUnsuppressedFindings) {
  RunResult result = RunChecksOnTree(TRANSEDGE_CHECK_ROOT);
  for (const Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
  // Sanity: the walker really scanned the repo, and every suppression
  // carries a documented reason.
  EXPECT_GT(result.files_scanned, 40);
  for (const RunResult::Suppressed& s : result.suppressed) {
    EXPECT_FALSE(s.reason.empty())
        << s.finding.file << ":" << s.finding.line;
  }
}

}  // namespace
}  // namespace transedge::check
