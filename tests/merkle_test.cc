#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "merkle/merkle_tree.h"

namespace transedge::merkle {
namespace {

Bytes V(const std::string& s) { return ToBytes(s); }

TEST(MerkleTreeTest, EmptyTreeHasStableRoot) {
  MerkleTree a(8), b(8);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  EXPECT_FALSE(a.RootDigest().IsZero());
}

TEST(MerkleTreeTest, RootChangesOnPut) {
  MerkleTree tree(8);
  crypto::Digest before = tree.RootDigest();
  tree.Put("k1", V("v1"), 0);
  EXPECT_NE(tree.RootDigest(), before);
}

TEST(MerkleTreeTest, SameContentSameRoot) {
  MerkleTree a(8), b(8);
  a.Put("k1", V("v1"), 0);
  a.Put("k2", V("v2"), 0);
  b.Put("k2", V("v2"), 0);  // Insertion order must not matter.
  b.Put("k1", V("v1"), 0);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
}

TEST(MerkleTreeTest, OverwriteChangesRootDeterministically) {
  MerkleTree a(8);
  a.Put("k", V("v1"), 0);
  crypto::Digest v1_root = a.RootDigest();
  a.Put("k", V("v2"), 1);
  EXPECT_NE(a.RootDigest(), v1_root);
  MerkleTree b(8);
  b.Put("k", V("v2"), 1);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
}

TEST(MerkleTreeTest, ProofVerifies) {
  MerkleTree tree(8);
  for (int i = 0; i < 50; ++i) {
    tree.Put("key" + std::to_string(i), V("value" + std::to_string(i)), i);
  }
  for (int i = 0; i < 50; ++i) {
    std::string key = "key" + std::to_string(i);
    Result<MerkleProof> proof = tree.Prove(key);
    ASSERT_TRUE(proof.ok()) << key;
    EXPECT_TRUE(MerkleTree::VerifyProof(*proof, key,
                                        V("value" + std::to_string(i)), i,
                                        tree.RootDigest())
                    .ok())
        << key;
  }
}

TEST(MerkleTreeTest, ProofRejectsWrongValue) {
  MerkleTree tree(8);
  tree.Put("k", V("genuine"), 3);
  MerkleProof proof = tree.Prove("k").value();
  Status s = MerkleTree::VerifyProof(proof, "k", V("forged"), 3,
                                     tree.RootDigest());
  EXPECT_TRUE(s.IsVerificationFailed());
}

TEST(MerkleTreeTest, ProofRejectsWrongVersion) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 3);
  MerkleProof proof = tree.Prove("k").value();
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("v"), 4,
                                      tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, ProofRejectsWrongRoot) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 0);
  MerkleProof proof = tree.Prove("k").value();
  tree.Put("other", V("x"), 1);  // Root moves on.
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("v"), 0,
                                      tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, ProofRejectsTamperedSibling) {
  MerkleTree tree(8);
  tree.Put("k1", V("v1"), 0);
  tree.Put("k2", V("v2"), 0);
  MerkleProof proof = tree.Prove("k1").value();
  ASSERT_FALSE(proof.siblings.empty());
  proof.siblings[0].bytes[0] ^= 1;
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k1", V("v1"), 0,
                                      tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, AbsenceProof) {
  MerkleTree tree(8);
  tree.Put("exists", V("v"), 0);
  MerkleProof proof = tree.Prove("missing").value();
  EXPECT_TRUE(
      MerkleTree::VerifyAbsence(proof, "missing", tree.RootDigest()).ok());
  // And an absence claim about a present key must fail.
  MerkleProof present = tree.Prove("exists").value();
  EXPECT_TRUE(MerkleTree::VerifyAbsence(present, "exists", tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, SnapshotsServeHistoricalProofs) {
  MerkleTree tree(8);
  tree.Put("k", V("old"), 0);
  MerkleTree::Snapshot snap0 = tree.GetSnapshot();
  crypto::Digest root0 = tree.RootDigest();

  tree.Put("k", V("new"), 1);
  ASSERT_NE(tree.RootDigest(), root0);

  // The old version still proves against the old root.
  MerkleProof proof = MerkleTree::ProveAt(snap0, "k").value();
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("old"), 0, root0).ok());
  EXPECT_EQ(snap0.RootDigest(), root0);

  // And the new version against the new root.
  MerkleProof fresh = tree.Prove("k").value();
  EXPECT_TRUE(MerkleTree::VerifyProof(fresh, "k", V("new"), 1,
                                      tree.RootDigest())
                  .ok());
}

TEST(MerkleTreeTest, CloneSharesStateThenDiverges) {
  MerkleTree a(8);
  a.Put("k", V("v"), 0);
  MerkleTree b = a.Clone();
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  b.Put("k2", V("v2"), 1);
  EXPECT_NE(a.RootDigest(), b.RootDigest());
  // The original is untouched.
  EXPECT_TRUE(
      MerkleTree::VerifyAbsence(a.Prove("k2").value(), "k2", a.RootDigest())
          .ok());
}

TEST(MerkleTreeTest, BucketCollisionsKeepBothKeys) {
  // Depth 2 => 4 buckets; 40 keys force collisions in every bucket.
  MerkleTree tree(2);
  for (int i = 0; i < 40; ++i) {
    tree.Put("k" + std::to_string(i), V("v" + std::to_string(i)), i);
  }
  for (int i = 0; i < 40; ++i) {
    std::string key = "k" + std::to_string(i);
    MerkleProof proof = tree.Prove(key).value();
    EXPECT_TRUE(MerkleTree::VerifyProof(proof, key, V("v" + std::to_string(i)),
                                        i, tree.RootDigest())
                    .ok())
        << key;
  }
}

TEST(MerkleTreeTest, ProofEncodeDecodeRoundTrip) {
  MerkleTree tree(8);
  tree.Put("k1", V("v1"), 5);
  tree.Put("k2", V("v2"), 6);
  MerkleProof proof = tree.Prove("k1").value();

  Encoder enc;
  Encode(proof, &enc);
  Decoder dec(enc.buffer());
  MerkleProof decoded = Decode<MerkleProof>(&dec).value();
  EXPECT_EQ(decoded.leaf_index, proof.leaf_index);
  EXPECT_EQ(decoded.bucket, proof.bucket);
  EXPECT_EQ(decoded.siblings.size(), proof.siblings.size());
  EXPECT_TRUE(MerkleTree::VerifyProof(decoded, "k1", V("v1"), 5,
                                      tree.RootDigest())
                  .ok());
}

// --- PutBatch == sequential Put ---------------------------------------------

struct KV {
  std::string key;
  Bytes value;
};

Bytes EncodedProof(const MerkleTree& tree, const std::string& key) {
  Encoder enc;
  Encode(tree.Prove(key).value(), &enc);
  return enc.buffer();
}

/// Applies `batches` to one tree with Put and to another with PutBatch,
/// and expects identical roots and proofs (for every key written, and one
/// never written) after each batch.
void ExpectBatchMatchesSequential(int depth,
                                  const std::vector<std::vector<KV>>& batches) {
  MerkleTree sequential(depth), batched(depth);
  std::vector<std::string> keys{"never-written"};
  for (size_t b = 0; b < batches.size(); ++b) {
    std::vector<MerkleTree::Write> writes;
    for (const KV& kv : batches[b]) {
      sequential.Put(kv.key, kv.value, static_cast<int64_t>(b));
      writes.push_back({&kv.key, &kv.value});
      keys.push_back(kv.key);
    }
    MerkleTree::Snapshot before = batched.GetSnapshot();
    crypto::Digest before_root = batched.RootDigest();
    batched.PutBatch(writes, static_cast<int64_t>(b));
    ASSERT_EQ(batched.RootDigest(), sequential.RootDigest()) << "batch " << b;
    EXPECT_EQ(before.RootDigest(), before_root) << "snapshot mutated";
    for (const std::string& key : keys) {
      EXPECT_EQ(EncodedProof(batched, key), EncodedProof(sequential, key))
          << key << " after batch " << b;
    }
  }
}

TEST(MerklePutBatchTest, RandomWriteSetsMatchSequentialPut) {
  Rng rng(5);
  for (int depth : {1, 8, 16}) {
    std::vector<std::vector<KV>> batches;
    for (int b = 0; b < 6; ++b) {
      std::vector<KV> batch;
      const uint64_t n = rng.NextBounded(64) + 1;
      for (uint64_t i = 0; i < n; ++i) {
        batch.push_back({"key" + std::to_string(rng.NextBounded(200)),
                         V("v" + std::to_string(rng.Next()))});
      }
      batches.push_back(std::move(batch));
    }
    ExpectBatchMatchesSequential(depth, batches);
  }
}

TEST(MerklePutBatchTest, LaterWriteToSameKeyWins) {
  ExpectBatchMatchesSequential(
      8, {{{"k", V("first")}, {"other", V("x")}, {"k", V("second")}},
          {{"k", V("third")}, {"k", V("fourth")}}});
  MerkleTree tree(8);
  std::string k = "k";
  Bytes v1 = V("first"), v2 = V("second");
  tree.PutBatch({{&k, &v1}, {&k, &v2}}, 3);
  EXPECT_TRUE(
      MerkleTree::VerifyProof(tree.Prove("k").value(), "k", v2, 3,
                              tree.RootDigest())
          .ok());
}

TEST(MerklePutBatchTest, CollidingLeavesAtDepthFour) {
  // 16 leaves, 100 keys: every leaf bucket takes several writes per batch.
  std::vector<std::vector<KV>> batches(3);
  for (int i = 0; i < 100; ++i) {
    batches[i % 3].push_back(
        {"c" + std::to_string(i), V("v" + std::to_string(i))});
    batches[(i + 1) % 3].push_back(
        {"c" + std::to_string(i), V("w" + std::to_string(i))});
  }
  ExpectBatchMatchesSequential(4, batches);
}

TEST(MerklePutBatchTest, EmptyBatchChangesNothing) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 0);
  crypto::Digest root = tree.RootDigest();
  tree.PutBatch({}, 1);
  EXPECT_EQ(tree.RootDigest(), root);
  ExpectBatchMatchesSequential(8, {{}, {{"k", V("v")}}, {}});
}

// Property sweep: proofs verify across tree depths and key counts.
class MerkleDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(MerkleDepthTest, AllProofsVerifyAtDepth) {
  int depth = GetParam();
  MerkleTree tree(depth);
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    tree.Put("key" + std::to_string(i), V(std::to_string(i * i)), i);
  }
  for (int i = 0; i < n; ++i) {
    std::string key = "key" + std::to_string(i);
    MerkleProof proof = tree.Prove(key).value();
    EXPECT_EQ(static_cast<int>(proof.siblings.size()), depth);
    EXPECT_TRUE(MerkleTree::VerifyProof(proof, key, V(std::to_string(i * i)),
                                        i, tree.RootDigest())
                    .ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, MerkleDepthTest,
                         ::testing::Values(1, 2, 4, 8, 12, 16, 20));

}  // namespace
}  // namespace transedge::merkle
