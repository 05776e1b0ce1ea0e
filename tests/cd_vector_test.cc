// Unit tests for the Conflict-Dependency vector — the core bookkeeping of
// TransEdge's read-only protocol (Algorithm 1's merge step and the
// dependency-coverage check used by Algorithm 2).

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/rng.h"
#include "txn/cd_vector.h"

namespace transedge::txn {
namespace {

TEST(CdVectorTest, StartsWithNoDependencies) {
  CdVector v(4);
  EXPECT_EQ(v.size(), 4u);
  for (PartitionId p = 0; p < 4; ++p) EXPECT_EQ(v.Get(p), kNoBatch);
}

TEST(CdVectorTest, SetGet) {
  CdVector v(3);
  v.Set(1, 42);
  EXPECT_EQ(v.Get(1), 42);
  EXPECT_EQ(v.Get(0), kNoBatch);
}

TEST(CdVectorTest, PairwiseMaxTakesEntryWiseMaximum) {
  CdVector a(3), b(3);
  a.Set(0, 5);
  a.Set(1, 2);
  b.Set(1, 7);
  b.Set(2, 1);
  a.PairwiseMax(b);
  EXPECT_EQ(a.Get(0), 5);
  EXPECT_EQ(a.Get(1), 7);
  EXPECT_EQ(a.Get(2), 1);
}

TEST(CdVectorTest, PairwiseMaxIsIdempotent) {
  CdVector a(3), b(3);
  a.Set(0, 5);
  b.Set(1, 7);
  a.PairwiseMax(b);
  CdVector once = a;
  a.PairwiseMax(b);
  EXPECT_EQ(a, once);
}

TEST(CdVectorTest, PairwiseMaxIsCommutativeInEffect) {
  CdVector a(4), b(4);
  a.Set(0, 3);
  a.Set(2, 9);
  b.Set(0, 5);
  b.Set(3, 1);
  CdVector ab = a;
  ab.PairwiseMax(b);
  CdVector ba = b;
  ba.PairwiseMax(a);
  EXPECT_EQ(ab, ba);
}

TEST(CdVectorTest, CoveredBy) {
  CdVector deps(3), lce(3);
  deps.Set(0, 4);
  deps.Set(1, 2);
  lce.Set(0, 4);
  lce.Set(1, 3);
  lce.Set(2, 10);
  EXPECT_TRUE(deps.CoveredBy(lce));   // Every entry <=.
  EXPECT_FALSE(lce.CoveredBy(deps));  // Not the other way.
  deps.Set(2, 11);
  EXPECT_FALSE(deps.CoveredBy(lce));
}

TEST(CdVectorTest, NoDependencyIsAlwaysCovered) {
  CdVector deps(2), other(2);
  EXPECT_TRUE(deps.CoveredBy(other));
}

TEST(CdVectorTest, EncodeDecodeRoundTrip) {
  CdVector v(5);
  v.Set(0, 0);
  v.Set(2, 123456789);
  v.Set(4, kNoBatch);
  Encoder enc;
  Encode(v, &enc);
  Decoder dec(enc.buffer());
  CdVector decoded = Decode<CdVector>(&dec).value();
  EXPECT_EQ(decoded, v);
}

TEST(CdVectorTest, ToStringFormat) {
  CdVector v(3);
  v.Set(0, 2);
  v.Set(2, 5);
  EXPECT_EQ(v.ToString(), "[2,-1,5]");
}

// Property sweep: the transitive-closure property Algorithm 1 relies on —
// folding reported vectors with PairwiseMax yields a vector that covers
// every input (Lemma 4.2/4.3's mechanical core).
class CdVectorFoldTest : public ::testing::TestWithParam<int> {};

TEST_P(CdVectorFoldTest, FoldCoversAllInputs) {
  int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + 7);
  std::vector<CdVector> reported;
  for (int i = 0; i < 10; ++i) {
    CdVector v(static_cast<size_t>(n));
    for (int p = 0; p < n; ++p) {
      if (rng.NextBernoulli(0.6)) {
        v.Set(static_cast<PartitionId>(p),
              static_cast<BatchId>(rng.NextBounded(100)));
      }
    }
    reported.push_back(std::move(v));
  }
  CdVector folded(static_cast<size_t>(n));
  for (const CdVector& v : reported) folded.PairwiseMax(v);
  for (const CdVector& v : reported) {
    EXPECT_TRUE(v.CoveredBy(folded));
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, CdVectorFoldTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace transedge::txn
