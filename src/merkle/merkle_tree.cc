#include "merkle/merkle_tree.h"

#include <algorithm>
#include <cassert>

namespace transedge::merkle {

namespace {

/// Deepest proof a verifier accepts: `LeafIndexFor` takes a leaf's bits
/// from a 32-bit hash prefix.
constexpr size_t kMaxProofDepth = 32;

/// Digest of a leaf bucket: hash over the sorted entries. An empty bucket
/// at level `depth` uses the precomputed empty digest instead.
crypto::Digest BucketDigest(const std::vector<BucketEntry>& bucket) {
  Encoder enc;
  // Room for a bucket of short keys, so the puts below allocate once.
  enc.Reserve(64 * (bucket.size() + 1));
  enc.PutString("leaf");
  enc.PutU32(static_cast<uint32_t>(bucket.size()));
  for (const BucketEntry& e : bucket) {
    enc.PutString(e.key);
    enc.PutRaw(e.value_digest.bytes.data(), e.value_digest.bytes.size());
    enc.PutI64(e.version);
  }
  return crypto::Sha256::Hash(enc.buffer());
}

/// The checks on one claim's own leaf, shared by every verifier: the
/// proof's depth is one a tree can have, the proof sits at the key's
/// leaf, and its bucket holds (key, value, version) — or lacks the key
/// when `value` is null. The depth comes from the sender and is a shift
/// count in `LeafIndexFor`, so it is bounded first.
Status CheckLeaf(const MerkleProof& proof, const std::string& key,
                 const crypto::Digest* key_digest, const Bytes* value,
                 int64_t version) {
  const size_t depth = proof.siblings.size();
  if (depth == 0 || depth > kMaxProofDepth) {
    return Status::VerificationFailed("proof depth out of range");
  }
  const uint32_t leaf_index =
      key_digest != nullptr
          ? MerkleTree::LeafIndexFor(*key_digest, static_cast<int>(depth))
          : MerkleTree::LeafIndexFor(key, static_cast<int>(depth));
  if (proof.leaf_index != leaf_index) {
    return Status::VerificationFailed("proof leaf index mismatch for key");
  }
  auto it = std::find_if(
      proof.bucket.begin(), proof.bucket.end(),
      [&key](const BucketEntry& e) { return e.key == key; });
  if (value == nullptr) {
    if (it != proof.bucket.end()) {
      return Status::VerificationFailed("key is present, not absent");
    }
    return Status::OK();
  }
  if (it == proof.bucket.end()) {
    return Status::VerificationFailed("key missing from proof bucket");
  }
  if (it->value_digest != crypto::Sha256::Hash(*value)) {
    return Status::VerificationFailed("value digest mismatch");
  }
  if (it->version != version) {
    return Status::VerificationFailed("version mismatch");
  }
  return Status::OK();
}

Status CheckRoot(const MerkleProof& proof, const crypto::Digest& root) {
  if (proof.ComputeRoot() != root) {
    return Status::VerificationFailed("computed root does not match");
  }
  return Status::OK();
}

/// Precomputes the digest of an entirely-empty subtree at each level.
/// empty[depth] is the empty-leaf digest; empty[0] the empty-root digest.
/// The empty leaf hashes as an empty *bucket* so that absence proofs
/// (whose bucket is empty) recompute the same digest.
std::vector<crypto::Digest> ComputeEmptyDigests(int depth) {
  std::vector<crypto::Digest> empty(depth + 1);
  empty[depth] = BucketDigest({});
  for (int level = depth - 1; level >= 0; --level) {
    empty[level] = crypto::HashPair(empty[level + 1], empty[level + 1]);
  }
  return empty;
}

}  // namespace

// No node type has a virtual function: a vtable pointer would take an
// interior node past one 64-byte allocation.
struct MerkleTree::Node {
  enum class Kind : uint8_t { kInterior, kLeaf };

  explicit Node(Kind k) : kind(k) {}

  /// A node's role follows from its level: leaves sit at level `depth`,
  /// and every node above them is interior. Null stays null.
  static const Interior* AsInterior(const Node* node);
  static const Leaf* AsLeaf(const Node* node);

  crypto::Digest digest;
  uint32_t refs = 1;  // Owning NodeRefs.
  const Kind kind;
};

struct MerkleTree::Interior : Node {
  Interior() : Node(Kind::kInterior) {}

  NodeRef left;
  NodeRef right;
};

struct MerkleTree::Leaf : Node {
  Leaf() : Node(Kind::kLeaf) {}

  std::vector<BucketEntry> bucket;
};

const MerkleTree::Interior* MerkleTree::Node::AsInterior(const Node* node) {
  assert(node == nullptr || node->kind == Kind::kInterior);
  return static_cast<const Interior*>(node);
}

const MerkleTree::Leaf* MerkleTree::Node::AsLeaf(const Node* node) {
  assert(node == nullptr || node->kind == Kind::kLeaf);
  return static_cast<const Leaf*>(node);
}

void MerkleTree::NodeRef::Retain(Node* node) {
  if (node != nullptr) ++node->refs;
}

void MerkleTree::NodeRef::Release(Node* node) {
  // Snapshots keep every node on their paths alive, so node size is
  // replica memory: with glibc's 8-byte chunk header an interior node
  // takes one 64-byte chunk and a leaf one 80-byte chunk.
  static_assert(sizeof(Interior) <= 56);
  static_assert(sizeof(Leaf) <= 64);
  if (node == nullptr || --node->refs != 0) return;
  // Deleting an interior node releases its children, so a freed path
  // unwinds at most `depth` frames deep.
  if (node->kind == Node::Kind::kLeaf) {
    delete static_cast<Leaf*>(node);
  } else {
    delete static_cast<Interior*>(node);
  }
}

MerkleTree::MerkleTree(int depth)
    : MerkleTree(depth, NodeRef(),
                 std::make_shared<const std::vector<crypto::Digest>>(
                     ComputeEmptyDigests(depth))) {}

MerkleTree::MerkleTree(int depth, NodeRef root, EmptyDigests empty)
    : depth_(depth), root_(std::move(root)), empty_digests_(std::move(empty)) {}

MerkleTree::~MerkleTree() = default;

uint32_t MerkleTree::LeafIndexFor(const std::string& key, int depth) {
  return LeafIndexFor(crypto::Sha256::Hash(key), depth);
}

uint32_t MerkleTree::LeafIndexFor(const crypto::Digest& key_digest,
                                  int depth) {
  const crypto::Digest& d = key_digest;
  uint32_t prefix = (static_cast<uint32_t>(d.bytes[0]) << 24) |
                    (static_cast<uint32_t>(d.bytes[1]) << 16) |
                    (static_cast<uint32_t>(d.bytes[2]) << 8) |
                    static_cast<uint32_t>(d.bytes[3]);
  return prefix >> (32 - depth);
}

crypto::Digest MerkleTree::DigestOf(const Node* node, int level,
                                    const std::vector<crypto::Digest>& empty) {
  return node == nullptr ? empty[level] : node->digest;
}

struct MerkleTree::LeafWrite {
  uint32_t leaf_index;
  BucketEntry entry;
};

MerkleTree::NodeRef MerkleTree::PutRec(
    const Node* node, int level, int depth, const LeafWrite* first,
    const LeafWrite* last, const std::vector<crypto::Digest>& empty) {
  if (level == depth) {
    Leaf* next = new Leaf;
    NodeRef ref(next);
    if (node != nullptr) next->bucket = Node::AsLeaf(node)->bucket;
    for (const LeafWrite* w = first; w != last; ++w) {
      const BucketEntry& entry = w->entry;
      auto it = std::find_if(
          next->bucket.begin(), next->bucket.end(),
          [&entry](const BucketEntry& e) { return e.key == entry.key; });
      if (it != next->bucket.end()) {
        *it = entry;
      } else {
        // Keep buckets sorted so digests are canonical.
        auto pos = std::lower_bound(
            next->bucket.begin(), next->bucket.end(), entry,
            [](const BucketEntry& a, const BucketEntry& b) {
              return a.key < b.key;
            });
        next->bucket.insert(pos, entry);
      }
    }
    next->digest = BucketDigest(next->bucket);
    return ref;
  }

  // Interior: the writes whose leaf bit at this level is 0 go left. They
  // sort first, since every write here shares the bits above.
  const int shift = depth - 1 - level;
  const LeafWrite* mid =
      std::partition_point(first, last, [shift](const LeafWrite& w) {
        return ((w.leaf_index >> shift) & 1) == 0;
      });
  Interior* next = new Interior;
  NodeRef ref(next);
  if (node != nullptr) {
    const Interior* old = Node::AsInterior(node);
    next->left = old->left;
    next->right = old->right;
  }
  if (first != mid) {
    next->left = PutRec(next->left.get(), level + 1, depth, first, mid, empty);
  }
  if (mid != last) {
    next->right =
        PutRec(next->right.get(), level + 1, depth, mid, last, empty);
  }
  next->digest =
      crypto::HashPair(DigestOf(next->left.get(), level + 1, empty),
                       DigestOf(next->right.get(), level + 1, empty));
  return ref;
}

MerkleTree MerkleTree::Clone() const {
  return MerkleTree(depth_, root_, empty_digests_);
}

void MerkleTree::Put(const std::string& key, const Bytes& value,
                     int64_t version) {
  LeafWrite write{LeafIndexFor(key, depth_),
                  BucketEntry{key, crypto::Sha256::Hash(value), version}};
  root_ = PutRec(root_.get(), 0, depth_, &write, &write + 1, *empty_digests_);
}

void MerkleTree::PutBatch(const std::vector<Write>& writes) {
  if (writes.empty()) return;
  std::vector<LeafWrite> sorted;
  sorted.reserve(writes.size());
  for (const Write& w : writes) {
    sorted.push_back(
        {w.key_digest != nullptr ? LeafIndexFor(*w.key_digest, depth_)
                                 : LeafIndexFor(*w.key, depth_),
         BucketEntry{*w.key, crypto::Sha256::Hash(*w.value), w.version}});
  }
  // Stable: writes to one leaf keep their arrival order, so a later write
  // to the same key overwrites an earlier one, as with sequential Put.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const LeafWrite& a, const LeafWrite& b) {
                     return a.leaf_index < b.leaf_index;
                   });
  root_ = PutRec(root_.get(), 0, depth_, sorted.data(),
                 sorted.data() + sorted.size(), *empty_digests_);
}

crypto::Digest MerkleTree::RootDigest() const {
  return DigestOf(root_.get(), 0, *empty_digests_);
}

MerkleTree::Snapshot MerkleTree::GetSnapshot() const {
  Snapshot snap;
  snap.depth_ = depth_;
  snap.root_ = root_;
  snap.empty_digests_ = empty_digests_;
  return snap;
}

crypto::Digest MerkleTree::Snapshot::RootDigest() const {
  if (!valid()) return crypto::Digest{};
  return MerkleTree::DigestOf(root_.get(), 0, *empty_digests_);
}

Result<MerkleProof> MerkleTree::Prove(const std::string& key) const {
  return ProveAt(GetSnapshot(), key);
}

Result<MerkleProof> MerkleTree::ProveAt(const Snapshot& snapshot,
                                        const std::string& key) {
  if (!snapshot.valid()) {
    return Status::FailedPrecondition("null merkle snapshot");
  }
  const auto& empty = *snapshot.empty_digests_;
  int depth = snapshot.depth_;
  MerkleProof proof;
  proof.leaf_index = LeafIndexFor(key, depth);

  // Walk down, writing each level's sibling into its bottom-up slot.
  proof.siblings.resize(depth);
  const Node* node = snapshot.root_.get();
  for (int level = 0; level < depth; ++level) {
    bool go_right = (proof.leaf_index >> (depth - 1 - level)) & 1;
    const Interior* interior = Node::AsInterior(node);
    const Node* left = interior ? interior->left.get() : nullptr;
    const Node* right = interior ? interior->right.get() : nullptr;
    proof.siblings[depth - 1 - level] =
        go_right ? DigestOf(left, level + 1, empty)
                 : DigestOf(right, level + 1, empty);
    node = go_right ? right : left;
  }
  // A null node here means the leaf bucket is empty: the proof carries an
  // empty bucket and doubles as a proof of absence.
  if (node != nullptr) proof.bucket = Node::AsLeaf(node)->bucket;
  return proof;
}

Status MerkleTree::VerifyAbsence(const MerkleProof& proof,
                                 const std::string& key,
                                 const crypto::Digest& root) {
  TE_RETURN_IF_ERROR(CheckLeaf(proof, key, nullptr, nullptr, 0));
  return CheckRoot(proof, root);
}

crypto::Digest MerkleProof::ComputeRoot() const {
  crypto::Digest acc = BucketDigest(bucket);
  int depth = static_cast<int>(siblings.size());
  for (int i = 0; i < depth; ++i) {
    // siblings[i] sits at level depth-i; our position bit at that level is
    // bit i of the leaf index.
    bool node_is_right = (leaf_index >> i) & 1;
    acc = node_is_right ? crypto::HashPair(siblings[i], acc)
                        : crypto::HashPair(acc, siblings[i]);
  }
  return acc;
}

Status MerkleTree::VerifyProof(const MerkleProof& proof,
                               const std::string& key, const Bytes& value,
                               int64_t version, const crypto::Digest& root) {
  TE_RETURN_IF_ERROR(CheckLeaf(proof, key, nullptr, &value, version));
  return CheckRoot(proof, root);
}

Status MerkleTree::VerifyProofs(const std::vector<Claim>& claims,
                                const crypto::Digest& root) {
  for (const Claim& c : claims) {
    TE_RETURN_IF_ERROR(
        CheckLeaf(*c.proof, *c.key, c.key_digest, c.value, c.version));
  }
  if (claims.empty()) return Status::OK();
  // One tree has one depth: proofs of two depths cannot both reach `root`
  // without a collision.
  const size_t depth = claims[0].proof->siblings.size();
  for (const Claim& c : claims) {
    if (c.proof->siblings.size() != depth) {
      return Status::VerificationFailed("proofs differ in depth");
    }
  }

  // In leaf order, the proofs under any node form one run of `order`.
  std::vector<const MerkleProof*> order;
  order.reserve(claims.size());
  for (const Claim& c : claims) order.push_back(c.proof);
  std::sort(order.begin(), order.end(),
            [](const MerkleProof* a, const MerkleProof* b) {
              return a->leaf_index < b->leaf_index;
            });

  // The nodes of one level on the claims' paths, in index order; each
  // covers the run [begin, end) of `order`.
  struct PathNode {
    crypto::Digest digest;
    uint32_t index;
    size_t begin;
    size_t end;
  };
  std::vector<PathNode> level;
  level.reserve(order.size());
  for (size_t begin = 0; begin < order.size();) {
    const MerkleProof& first = *order[begin];
    size_t end = begin + 1;
    for (; end < order.size() && order[end]->leaf_index == first.leaf_index;
         ++end) {
      if (order[end]->bucket != first.bucket) {
        return Status::VerificationFailed("proofs disagree on a shared leaf");
      }
    }
    level.push_back({BucketDigest(first.bucket), first.leaf_index, begin, end});
    begin = end;
  }

  // Climbs from level depth-i to depth-i-1. Every proof of a run must
  // carry, as its sibling there, the digest that stands there: the
  // computed neighbour when that is on the path of another claim, else
  // the run's first proof's sibling. So each claim's path hashes to what
  // its own ComputeRoot would give.
  auto run_carries = [&order](size_t begin, size_t end, size_t i,
                              const crypto::Digest& sibling) {
    for (size_t k = begin; k < end; ++k) {
      if (order[k]->siblings[i] != sibling) return false;
    }
    return true;
  };
  for (size_t i = 0; i < depth; ++i) {
    size_t parents = 0;
    for (size_t k = 0; k < level.size(); ++parents) {
      const PathNode& node = level[k];
      const bool paired =
          k + 1 < level.size() && level[k + 1].index == (node.index ^ 1);
      const crypto::Digest& sibling =
          paired ? level[k + 1].digest : order[node.begin]->siblings[i];
      const size_t end = paired ? level[k + 1].end : node.end;
      if (!run_carries(node.begin, node.end, i, sibling) ||
          (paired && !run_carries(node.end, end, i, node.digest))) {
        return Status::VerificationFailed("sibling does not match path");
      }
      const crypto::Digest parent =
          (node.index & 1) ? crypto::HashPair(sibling, node.digest)
                           : crypto::HashPair(node.digest, sibling);
      level[parents] = {parent, node.index >> 1, node.begin, end};
      k += paired ? 2 : 1;
    }
    level.resize(parents);
  }
  // Every leaf index is below 2^depth, so one node, the root, is left.
  if (level[0].digest != root) {
    return Status::VerificationFailed("computed root does not match");
  }
  return Status::OK();
}

}  // namespace transedge::merkle
