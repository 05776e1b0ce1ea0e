#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
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

// Snapshots and clones own what they reach: each keeps proving after the
// tree it came from and the other clones are destroyed or overwritten.
// Under the sanitizer build a node freed early is a use-after-free and a
// count that never reaches zero is a leak.
TEST(MerkleTreeTest, SnapshotsOutliveTheirTree) {
  using State = std::map<std::string, std::pair<Bytes, int64_t>>;
  struct Version {
    MerkleTree::Snapshot snapshot;
    crypto::Digest root;  // Of a tree built by sequential Put.
    State state;
  };
  auto key_of = [](uint64_t i) { return "k" + std::to_string(i); };
  std::vector<Version> versions;
  std::vector<MerkleTree> clones;
  {
    MerkleTree tree(6);
    MerkleTree sequential(6);
    State state;
    Rng rng(3);
    for (int64_t v = 0; v < 6; ++v) {
      for (int i = 0; i < 12; ++i) {
        const std::string key = key_of(rng.NextBounded(40));
        const Bytes value = V(std::to_string(v) + "." + std::to_string(i));
        tree.Put(key, value, v);
        sequential.Put(key, value, v);
        state[key] = {value, v};
      }
      ASSERT_EQ(tree.RootDigest(), sequential.RootDigest());
      versions.push_back({tree.GetSnapshot(), sequential.RootDigest(), state});
      clones.push_back(tree.Clone());
    }
    clones[0] = clones[5].Clone();  // Drops version 0's clone.
    clones[5].Put("k0", V("diverged"), 9);
    clones.erase(clones.begin() + 1, clones.begin() + 3);  // Versions 1, 2.
    versions.erase(versions.begin() + 2);  // Its snapshot dies with it.
  }  // The tree and the sequential reference are gone.

  ASSERT_EQ(versions.size(), 5u);
  for (const Version& version : versions) {
    EXPECT_EQ(version.snapshot.RootDigest(), version.root);
    MerkleTree rebuilt(6);
    for (const auto& [key, vv] : version.state) {
      rebuilt.Put(key, vv.first, vv.second);
    }
    EXPECT_EQ(rebuilt.RootDigest(), version.root);
    for (uint64_t i = 0; i < 40; ++i) {
      const std::string key = key_of(i);
      Result<MerkleProof> proof = MerkleTree::ProveAt(version.snapshot, key);
      ASSERT_TRUE(proof.ok());
      auto it = version.state.find(key);
      if (it == version.state.end()) {
        EXPECT_TRUE(MerkleTree::VerifyAbsence(*proof, key, version.root).ok());
      } else {
        EXPECT_TRUE(MerkleTree::VerifyProof(*proof, key, it->second.first,
                                            it->second.second, version.root)
                        .ok())
            << key;
      }
    }
  }
  // Left: clones of versions 5 (copied over version 0's), 3 and 4, and
  // version 5's clone that diverged.
  ASSERT_EQ(clones.size(), 4u);
  EXPECT_EQ(clones[0].RootDigest(), versions[4].root);
  EXPECT_EQ(clones[1].RootDigest(), versions[2].root);
  EXPECT_EQ(clones[2].RootDigest(), versions[3].root);
  EXPECT_NE(clones[3].RootDigest(), versions[4].root);
  EXPECT_TRUE(MerkleTree::VerifyProof(clones[3].Prove("k0").value(), "k0",
                                      V("diverged"), 9,
                                      clones[3].RootDigest())
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

TEST(MerkleTreeTest, RejectsProofDepthOutOfRange) {
  // The sibling count is the sender's to choose and sets the leaf-index
  // shift: 0 would shift by 32 and anything above 32 by a negative count.
  MerkleTree tree(8);
  tree.Put("k", V("v"), 3);
  const crypto::Digest root = tree.RootDigest();
  const std::string key = "k";
  const std::string absent = "absent";
  const Bytes value = V("v");
  for (size_t count : {0u, 33u, 40u}) {
    MerkleProof proof = tree.Prove(key).value();
    proof.siblings.resize(count);
    EXPECT_TRUE(MerkleTree::VerifyProof(proof, key, value, 3, root)
                    .IsVerificationFailed())
        << count;
    EXPECT_TRUE(MerkleTree::VerifyAbsence(proof, absent, root)
                    .IsVerificationFailed())
        << count;
    for (size_t claims : {1u, 2u}) {
      std::vector<MerkleTree::Claim> set(claims, {&proof, &key, &value, 3});
      EXPECT_TRUE(MerkleTree::VerifyProofs(set, root).IsVerificationFailed())
          << count << " siblings, " << claims << " claims";
    }
  }
}

// --- VerifyProofs == every claim alone --------------------------------------

/// One claim with its own storage, as a reply carries it.
struct OwnedClaim {
  MerkleProof proof;
  std::string key;
  std::optional<Bytes> value;  // nullopt: a claim of absence.
  int64_t version = 0;
};

bool EachClaimPasses(const std::vector<OwnedClaim>& claims,
                     const crypto::Digest& root) {
  for (const OwnedClaim& c : claims) {
    Status s = c.value ? MerkleTree::VerifyProof(c.proof, c.key, *c.value,
                                                 c.version, root)
                       : MerkleTree::VerifyAbsence(c.proof, c.key, root);
    if (!s.ok()) return false;
  }
  return true;
}

bool AllClaimsAtOnce(const std::vector<OwnedClaim>& claims,
                     const crypto::Digest& root) {
  std::vector<MerkleTree::Claim> refs;
  for (const OwnedClaim& c : claims) {
    refs.push_back(
        {&c.proof, &c.key, c.value ? &*c.value : nullptr, c.version});
  }
  Status s = MerkleTree::VerifyProofs(refs, root);
  EXPECT_TRUE(s.ok() || s.IsVerificationFailed()) << s.ToString();
  return s.ok();
}

/// Returns VerifyProofs' verdict on `claims`, expecting it to equal the
/// verdict of checking each claim alone.
bool ExpectSameVerdict(const std::vector<OwnedClaim>& claims,
                       const crypto::Digest& root, const std::string& what) {
  const bool each = EachClaimPasses(claims, root);
  EXPECT_EQ(AllClaimsAtOnce(claims, root), each) << what;
  return each;
}

/// A tree of `num_keys` keys "k<i>" = "v<i>" at version i.
MerkleTree TreeWithKeys(int depth, int num_keys) {
  MerkleTree tree(depth);
  for (int i = 0; i < num_keys; ++i) {
    tree.Put("k" + std::to_string(i), V("v" + std::to_string(i)), i);
  }
  return tree;
}

/// A valid claim set against `tree`: present keys, absent keys and
/// repeats of earlier claims, in random order.
std::vector<OwnedClaim> RandomClaims(const MerkleTree& tree, int num_keys,
                                     Rng* rng) {
  std::vector<OwnedClaim> claims;
  const uint64_t n = rng->NextBounded(16) + 1;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t kind = rng->NextBounded(5);
    if (kind == 0 && !claims.empty()) {
      claims.push_back(claims[rng->NextBounded(claims.size())]);
      continue;
    }
    OwnedClaim c;
    if (kind == 1) {
      c.key = "absent" + std::to_string(rng->NextBounded(1000));
    } else {
      const int k = static_cast<int>(rng->NextBounded(num_keys));
      c.key = "k" + std::to_string(k);
      c.value = V("v" + std::to_string(k));
      c.version = k;
    }
    c.proof = tree.Prove(c.key).value();
    claims.push_back(std::move(c));
  }
  return claims;
}

TEST(MerkleVerifyProofsTest, EmptySetVerifies) {
  MerkleTree tree = TreeWithKeys(8, 10);
  EXPECT_TRUE(MerkleTree::VerifyProofs({}, tree.RootDigest()).ok());
}

TEST(MerkleVerifyProofsTest, RandomSetsAndMutantsMatchPerClaimChecks) {
  Rng rng(31);
  int valid_sets = 0;
  int rejected_mutants = 0;
  // Depth 4 with 100 keys puts ~6 keys in every bucket, so claims share
  // leaves and absent keys land in occupied buckets.
  for (auto [depth, num_keys] : {std::pair{1, 20}, std::pair{4, 100},
                                 std::pair{13, 400}, std::pair{16, 400}}) {
    MerkleTree tree = TreeWithKeys(depth, num_keys);
    const crypto::Digest root = tree.RootDigest();
    MerkleTree other = TreeWithKeys(depth, num_keys + 1);
    MerkleTree deeper = TreeWithKeys(depth + 1, num_keys);
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<OwnedClaim> claims =
          RandomClaims(tree, num_keys, &rng);
      const std::string where = "depth " + std::to_string(depth) +
                                ", trial " + std::to_string(trial);
      if (ExpectSameVerdict(claims, root, where + ": valid")) ++valid_sets;
      EXPECT_FALSE(ExpectSameVerdict(claims, other.RootDigest(),
                                     where + ": wrong root"));

      const size_t a = rng.NextBounded(claims.size());
      const size_t b = rng.NextBounded(claims.size());
      std::vector<std::pair<std::string, std::vector<OwnedClaim>>> mutants;
      for (size_t level = 0; level < static_cast<size_t>(depth); ++level) {
        auto m = claims;
        m[a].proof.siblings[level].bytes[rng.NextBounded(32)] ^= 0x40;
        mutants.emplace_back("flipped sibling " + std::to_string(level),
                             std::move(m));
      }
      {
        auto m = claims;
        std::swap(m[a].proof.siblings, m[b].proof.siblings);
        mutants.emplace_back("swapped siblings", std::move(m));
      }
      if (claims[a].value) {
        auto m = claims;
        m[a].value->push_back('!');
        mutants.emplace_back("wrong value", std::move(m));
        m = claims;
        ++m[a].version;
        mutants.emplace_back("wrong version", std::move(m));
      }
      {
        auto m = claims;
        m[a].proof.leaf_index ^= 1;
        mutants.emplace_back("leaf index mismatch", std::move(m));
      }
      {
        auto m = claims;
        m[a].proof.siblings.pop_back();
        mutants.emplace_back("truncated proof", std::move(m));
      }
      {
        auto m = claims;
        m[a].proof = deeper.Prove(m[a].key).value();
        mutants.emplace_back("mixed depth", std::move(m));
      }
      // The pass hashes one copy of each leaf's bucket, so a tampered
      // bucket in any claim whose leaf another claim shares must be
      // caught whichever copy sorts first.
      for (size_t c = 0; c < claims.size(); ++c) {
        bool shared = false;
        for (size_t d = 0; d < claims.size(); ++d) {
          shared |= d != c &&
                    claims[d].proof.leaf_index == claims[c].proof.leaf_index;
        }
        if (!shared) continue;
        const std::string at =
            " in shared bucket of claim " + std::to_string(c);
        auto m = claims;
        std::vector<BucketEntry>& bucket = m[c].proof.bucket;
        for (BucketEntry& e : bucket) {
          if (e.key == m[c].key) continue;
          ++e.version;
          mutants.emplace_back("other entry's version" + at, m);
          --e.version;
          e.value_digest.bytes[0] ^= 1;
          mutants.emplace_back("other entry's value digest" + at, m);
          break;
        }
        m = claims;
        m[c].proof.bucket.push_back({"extra", crypto::Digest{}, 1});
        mutants.emplace_back("entry added" + at, std::move(m));
      }
      for (const auto& [what, mutant] : mutants) {
        if (!ExpectSameVerdict(mutant, root, where + ": " + what)) {
          ++rejected_mutants;
        }
      }
    }
  }
  // The sweep must exercise both verdicts.
  EXPECT_GT(valid_sets, 100);
  EXPECT_GT(rejected_mutants, 1000);
}

TEST(MerkleVerifyProofsTest, EveryProofOfASharedPathIsChecked) {
  // Two claims of one key share their whole path, so the pass hashes it
  // once; a tampered sibling in either copy must still be rejected, as it
  // is when each copy is checked alone.
  MerkleTree tree = TreeWithKeys(13, 200);
  const crypto::Digest root = tree.RootDigest();
  OwnedClaim claim{tree.Prove("k5").value(), "k5", V("v5"), 5};
  for (size_t copy : {0u, 1u}) {
    for (size_t level = 0; level < 13; ++level) {
      std::vector<OwnedClaim> claims{claim, claim};
      claims[copy].proof.siblings[level].bytes[0] ^= 1;
      EXPECT_FALSE(AllClaimsAtOnce(claims, root))
          << "copy " << copy << ", level " << level;
    }
  }
  // The pass hashes one copy's bucket, so the copies must agree on it.
  for (size_t copy : {0u, 1u}) {
    std::vector<OwnedClaim> claims{claim, claim};
    claims[copy].proof.bucket.push_back({"extra", crypto::Digest{}, 1});
    EXPECT_FALSE(AllClaimsAtOnce(claims, root)) << "bucket of copy " << copy;
  }
  // Likewise for neighbouring leaves, whose paths meet below the root, and
  // for different keys of one leaf, whose claims share its bucket.
  MerkleTree shallow = TreeWithKeys(4, 100);
  std::vector<OwnedClaim> claims;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    claims.push_back({shallow.Prove(key).value(), key,
                      V("v" + std::to_string(i)), i});
  }
  ASSERT_TRUE(AllClaimsAtOnce(claims, shallow.RootDigest()));
  for (size_t i = 0; i < claims.size(); ++i) {
    for (size_t level = 0; level < 4; ++level) {
      auto mutant = claims;
      mutant[i].proof.siblings[level].bytes[7] ^= 1;
      EXPECT_FALSE(AllClaimsAtOnce(mutant, shallow.RootDigest()))
          << "claim " << i << ", level " << level;
    }
    ASSERT_GT(claims[i].proof.bucket.size(), 1u) << "claim " << i;
    auto mutant = claims;
    for (BucketEntry& e : mutant[i].proof.bucket) {
      if (e.key != mutant[i].key) ++e.version;
    }
    EXPECT_FALSE(AllClaimsAtOnce(mutant, shallow.RootDigest()))
        << "bucket of claim " << i;
  }
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
      writes.push_back({&kv.key, &kv.value, static_cast<int64_t>(b)});
      keys.push_back(kv.key);
    }
    MerkleTree::Snapshot before = batched.GetSnapshot();
    crypto::Digest before_root = batched.RootDigest();
    batched.PutBatch(writes);
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
  tree.PutBatch({{&k, &v1, 3}, {&k, &v2, 3}});
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

// A write that carries its key's digest lands in the same leaf as one
// that leaves the hashing to PutBatch: equal roots and proofs after every
// batch, with every write, some, or none carrying one.
TEST(MerklePutBatchTest, KeyDigestsGiveTheSameRootsAndProofs) {
  Rng rng(9);
  for (int depth : {1, 8, 16}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    MerkleTree plain(depth), all(depth), some(depth);
    std::vector<std::string> keys{"never-written"};
    for (int64_t b = 0; b < 6; ++b) {
      std::vector<KV> batch;
      const uint64_t n = rng.NextBounded(48) + 1;
      for (uint64_t i = 0; i < n; ++i) {
        batch.push_back({"key" + std::to_string(rng.NextBounded(150)),
                         V("v" + std::to_string(rng.Next()))});
        keys.push_back(batch.back().key);
      }
      std::vector<crypto::Digest> digests;
      for (const KV& kv : batch) {
        digests.push_back(crypto::Sha256::Hash(kv.key));
      }
      std::vector<MerkleTree::Write> without, with_all, with_some;
      for (size_t i = 0; i < batch.size(); ++i) {
        without.push_back({&batch[i].key, &batch[i].value, b});
        with_all.push_back({&batch[i].key, &batch[i].value, b, &digests[i]});
        with_some.push_back({&batch[i].key, &batch[i].value, b,
                             i % 2 == 0 ? &digests[i] : nullptr});
      }
      plain.PutBatch(without);
      all.PutBatch(with_all);
      some.PutBatch(with_some);
      ASSERT_EQ(all.RootDigest(), plain.RootDigest()) << "batch " << b;
      ASSERT_EQ(some.RootDigest(), plain.RootDigest()) << "batch " << b;
      for (const std::string& key : keys) {
        EXPECT_EQ(EncodedProof(all, key), EncodedProof(plain, key))
            << key << " after batch " << b;
        EXPECT_EQ(EncodedProof(some, key), EncodedProof(plain, key))
            << key << " after batch " << b;
      }
    }
  }
}

TEST(MerklePutBatchTest, EmptyBatchChangesNothing) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 0);
  crypto::Digest root = tree.RootDigest();
  tree.PutBatch({});
  EXPECT_EQ(tree.RootDigest(), root);
  ExpectBatchMatchesSequential(8, {{}, {{"k", V("v")}}, {}});
}

// --- Retained snapshot window ----------------------------------------------

// The replica's snapshot window: each batch's snapshot joins the back of
// a FIFO and the oldest leaves once the window is full, which frees the
// nodes only that version still reached. After every batch, the oldest
// and the newest retained snapshot must each prove every written key and
// the absence of every other one. Under the sanitizer build a node freed
// while a retained snapshot reaches it is a use-after-free, a leaf
// deleted as an interior node is a type mismatch, and a node never freed
// is a leak.
TEST(MerkleTreeTest, FifoSnapshotWindowKeepsProving) {
  using State = std::map<std::string, std::pair<Bytes, int64_t>>;
  struct Retained {
    MerkleTree::Snapshot snapshot;
    crypto::Digest root;
    State state;
  };
  constexpr size_t kWindow = 16;
  constexpr uint64_t kKeys = 120;  // Writes draw from the first 100.
  auto key_of = [](uint64_t i) { return "k" + std::to_string(i); };
  for (int depth : {8, 16}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    MerkleTree tree(depth);
    std::deque<Retained> window;
    State state;
    Rng rng(static_cast<uint64_t>(depth));
    for (int64_t version = 0; version < 200; ++version) {
      std::vector<KV> batch;
      const uint64_t n = rng.NextBounded(24) + 1;
      for (uint64_t i = 0; i < n; ++i) {
        batch.push_back({key_of(rng.NextBounded(100)),
                         V(std::to_string(version) + "." + std::to_string(i))});
      }
      std::vector<MerkleTree::Write> writes;
      for (const KV& kv : batch) {
        writes.push_back({&kv.key, &kv.value, version});
        state[kv.key] = {kv.value, version};
      }
      tree.PutBatch(writes);
      window.push_back({tree.GetSnapshot(), tree.RootDigest(), state});
      if (window.size() > kWindow) window.pop_front();

      for (const Retained* retained : {&window.front(), &window.back()}) {
        ASSERT_EQ(retained->snapshot.RootDigest(), retained->root);
        for (uint64_t i = 0; i < kKeys; ++i) {
          const std::string key = key_of(i);
          Result<MerkleProof> proof =
              MerkleTree::ProveAt(retained->snapshot, key);
          ASSERT_TRUE(proof.ok());
          ASSERT_EQ(static_cast<int>(proof->siblings.size()), depth);
          auto it = retained->state.find(key);
          const Status verified =
              it == retained->state.end()
                  ? MerkleTree::VerifyAbsence(*proof, key, retained->root)
                  : MerkleTree::VerifyProof(*proof, key, it->second.first,
                                            it->second.second,
                                            retained->root);
          ASSERT_TRUE(verified.ok())
              << key << " at version " << version << ": "
              << verified.ToString();
        }
      }
    }
  }
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
