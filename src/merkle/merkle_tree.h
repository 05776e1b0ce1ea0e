#ifndef TRANSEDGE_MERKLE_MERKLE_TREE_H_
#define TRANSEDGE_MERKLE_MERKLE_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace transedge::merkle {

/// One (key, value-digest, version) record inside a leaf bucket.
///
/// Values are stored by digest: the prover ships the actual value next to
/// the proof and the verifier hashes it, so the tree stays compact while
/// responses remain fully authenticated.
struct BucketEntry {
  std::string key;
  crypto::Digest value_digest;
  int64_t version = -1;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.key, self.value_digest, self.version);
  }

  bool operator==(const BucketEntry& other) const {
    return key == other.key && value_digest == other.value_digest &&
           version == other.version;
  }
};

/// An audit path from a leaf bucket to the root.
///
/// The proof carries the *entire* bucket (buckets hold the few keys whose
/// hash prefix collides at this depth; with the default geometry that is
/// ~1 key) plus the sibling digests bottom-up.
struct MerkleProof {
  uint32_t leaf_index = 0;
  std::vector<BucketEntry> bucket;
  std::vector<crypto::Digest> siblings;  // bottom-up: depth-1 ... 0

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.leaf_index, self.bucket, self.siblings);
  }
  bool operator==(const MerkleProof&) const = default;

  /// Recomputes the root this proof commits to. The depth (sibling
  /// count) must be 1..32; the verifiers check that before calling it.
  crypto::Digest ComputeRoot() const;
};

/// Authenticated key-value map: a sparse Merkle tree with path-copying
/// persistence.
///
/// This is the Authenticated Data Structure of §4.1. Each TransEdge
/// replica maintains one per partition; the root of the tree after
/// applying a batch's write-sets is certified by the cluster and lets a
/// *single* node later prove the authenticity of any read response.
///
/// Persistence: `Put` copies the O(depth) path it touches, so snapshots
/// (`SnapshotRoot`) taken after each batch remain valid and proofs can be
/// generated against any retained historical root — exactly what the
/// second round of the distributed read-only protocol needs (§4.3.4).
class MerkleTree {
 public:
  /// Handle to an immutable tree version.
  class Snapshot;

  /// `depth` levels below the root, i.e. 2^depth leaf buckets.
  explicit MerkleTree(int depth = 20);
  ~MerkleTree();

  MerkleTree(const MerkleTree&) = delete;
  MerkleTree& operator=(const MerkleTree&) = delete;
  MerkleTree(MerkleTree&&) = default;
  MerkleTree& operator=(MerkleTree&&) = default;

  /// Inserts or overwrites `key` with the digest of `value` at `version`.
  void Put(const std::string& key, const Bytes& value, int64_t version);

  /// One write of a `PutBatch`. The caller keeps key, value and digest
  /// alive for the call.
  struct Write {
    const std::string* key;
    const Bytes* value;
    int64_t version;
    /// SHA-256 of `*key`, for a caller that already computed it; null and
    /// `PutBatch` hashes the key itself.
    const crypto::Digest* key_digest = nullptr;
  };

  /// Applies all of `writes` in one descent: each touched node is copied
  /// and hashed once, however many writes pass through it. Digests and
  /// proofs are exactly those of calling `Put` for each write in order;
  /// a later write to the same key wins.
  void PutBatch(const std::vector<Write>& writes);

  /// Cheap structural-sharing copy (O(1)): the clone starts at the same
  /// version and diverges copy-on-write. Used by leaders to compute the
  /// post-batch root without mutating their applied state.
  MerkleTree Clone() const;

  /// Current root digest.
  crypto::Digest RootDigest() const;

  /// Immutable snapshot of the current version (cheap: shares structure).
  Snapshot GetSnapshot() const;

  /// Builds a proof for `key` against the current version. NotFound if
  /// the key was never written.
  Result<MerkleProof> Prove(const std::string& key) const;

  /// Builds a proof for `key` against `snapshot`.
  static Result<MerkleProof> ProveAt(const Snapshot& snapshot,
                                     const std::string& key);

  /// Checks that `proof` authenticates (`key`, `value`, `version`) under
  /// `root`. VerificationFailed on any mismatch.
  static Status VerifyProof(const MerkleProof& proof, const std::string& key,
                            const Bytes& value, int64_t version,
                            const crypto::Digest& root);

  /// Checks that `proof` authenticates the *absence* of `key` under
  /// `root` (the authenticated leaf bucket does not contain it).
  static Status VerifyAbsence(const MerkleProof& proof,
                              const std::string& key,
                              const crypto::Digest& root);

  /// One claim of a `VerifyProofs` call. The caller keeps proof, key and
  /// value alive for the call.
  struct Claim {
    const MerkleProof* proof;
    const std::string* key;
    const Bytes* value;  // Null: the claim is the key's absence.
    int64_t version;
    /// SHA-256 of `*key`, for a caller that already computed it; null and
    /// the verifier hashes the key itself.
    const crypto::Digest* key_digest = nullptr;
  };

  /// Checks every claim against `root` in one pass: OK exactly when each
  /// claim passes `VerifyProof` (or `VerifyAbsence` for a null value)
  /// alone, barring a SHA-256 collision. The claims are sorted by leaf
  /// and climbed level by level, so a node on several of their paths is
  /// hashed once; each proof's sibling at each level must equal the
  /// digest it stands for there. Proofs of differing depths are
  /// rejected. OK for no claims.
  static Status VerifyProofs(const std::vector<Claim>& claims,
                             const crypto::Digest& root);

  /// Leaf index for `key` at depth `depth` (exposed for tests).
  static uint32_t LeafIndexFor(const std::string& key, int depth);
  /// The same, from the key's SHA-256.
  static uint32_t LeafIndexFor(const crypto::Digest& key_digest, int depth);

  int depth() const { return depth_; }

 private:
  /// A node's digest, count and kind. Each node is exactly one of the two
  /// roles below, and the kind says which, so a tree node carries no
  /// field its role never uses.
  struct Node;
  /// A node above the leaves: two children, either of them null for an
  /// empty subtree.
  struct Interior;
  /// A leaf bucket at level `depth`.
  struct Leaf;
  struct LeafWrite;
  using EmptyDigests = std::shared_ptr<const std::vector<crypto::Digest>>;

  /// Owning handle to an immutable node. The count is intrusive and not
  /// atomic: a tree, its clones and its snapshots are used from one
  /// thread, and the library starts none.
  class NodeRef {
   public:
    NodeRef() = default;
    /// Adopts a freshly allocated node, whose count starts at 1.
    explicit NodeRef(Node* node) : node_(node) {}
    NodeRef(const NodeRef& other) : node_(other.node_) { Retain(node_); }
    NodeRef(NodeRef&& other) noexcept
        : node_(std::exchange(other.node_, nullptr)) {}
    NodeRef& operator=(NodeRef other) noexcept {
      std::swap(node_, other.node_);
      return *this;
    }
    ~NodeRef() { Release(node_); }

    const Node* get() const { return node_; }

   private:
    static void Retain(Node* node);
    /// Deletes the node, as the type its kind names, when the last owner
    /// lets go.
    static void Release(Node* node);

    Node* node_ = nullptr;
  };

  /// A clone's constructor: shares `empty` instead of recomputing it.
  MerkleTree(int depth, NodeRef root, EmptyDigests empty);

  /// Copies the path to every leaf in [first, last), which are sorted by
  /// (leaf index, arrival) and all lie below `node`.
  static NodeRef PutRec(const Node* node, int level, int depth,
                        const LeafWrite* first, const LeafWrite* last,
                        const std::vector<crypto::Digest>& empty);
  static crypto::Digest DigestOf(const Node* node, int level,
                                 const std::vector<crypto::Digest>& empty);

  int depth_;
  NodeRef root_;
  EmptyDigests empty_digests_;
};

/// An immutable version of the tree. Copyable; keeps the version alive.
class MerkleTree::Snapshot {
 public:
  Snapshot() = default;

  /// Root digest of this version (zero digest for a null snapshot).
  crypto::Digest RootDigest() const;

  bool valid() const { return empty_digests_ != nullptr; }

 private:
  friend class MerkleTree;

  int depth_ = 0;
  NodeRef root_;
  EmptyDigests empty_digests_;
};

}  // namespace transedge::merkle

#endif  // TRANSEDGE_MERKLE_MERKLE_TREE_H_
