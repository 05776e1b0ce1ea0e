#include "merkle/merkle_tree.h"

#include <algorithm>

namespace transedge::merkle {

namespace {

/// Digest of a leaf bucket: hash over the sorted entries. An empty bucket
/// at level `depth` uses the precomputed empty digest instead.
crypto::Digest BucketDigest(const std::vector<BucketEntry>& bucket) {
  Encoder enc;
  enc.PutString("leaf");
  enc.PutU32(static_cast<uint32_t>(bucket.size()));
  for (const BucketEntry& e : bucket) {
    enc.PutString(e.key);
    enc.PutRaw(e.value_digest.bytes.data(), e.value_digest.bytes.size());
    enc.PutI64(e.version);
  }
  return crypto::Sha256::Hash(enc.buffer());
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

struct MerkleTree::Node {
  crypto::Digest digest;
  NodeRef left;                     // Interior nodes only.
  NodeRef right;                    // Interior nodes only.
  std::vector<BucketEntry> bucket;  // Leaves only.
  bool is_leaf = false;
};

MerkleTree::MerkleTree(int depth)
    : depth_(depth),
      root_(nullptr),
      empty_digests_(std::make_shared<const std::vector<crypto::Digest>>(
          ComputeEmptyDigests(depth))) {}

MerkleTree::~MerkleTree() = default;

uint32_t MerkleTree::LeafIndexFor(const std::string& key, int depth) {
  crypto::Digest d = crypto::Sha256::Hash(key);
  uint32_t prefix = (static_cast<uint32_t>(d.bytes[0]) << 24) |
                    (static_cast<uint32_t>(d.bytes[1]) << 16) |
                    (static_cast<uint32_t>(d.bytes[2]) << 8) |
                    static_cast<uint32_t>(d.bytes[3]);
  return prefix >> (32 - depth);
}

uint32_t MerkleTree::LeafShardOf(uint32_t leaf_index, int depth,
                                 uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  // leaf_index < 2^depth, so the product stays within 64 bits and the
  // result lands in [0, shard_count).
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(leaf_index) * shard_count) >> depth);
}

crypto::Digest MerkleTree::DigestOf(const NodeRef& node, int level,
                                    const std::vector<crypto::Digest>& empty) {
  return node == nullptr ? empty[level] : node->digest;
}

struct MerkleTree::LeafWrite {
  uint32_t leaf_index;
  BucketEntry entry;
};

MerkleTree::NodeRef MerkleTree::PutRec(
    const NodeRef& node, int level, int depth, const LeafWrite* first,
    const LeafWrite* last, const std::vector<crypto::Digest>& empty) {
  auto next = std::make_shared<Node>();
  if (level == depth) {
    next->is_leaf = true;
    if (node != nullptr) next->bucket = node->bucket;
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
    return next;
  }

  // Interior: the writes whose leaf bit at this level is 0 go left. They
  // sort first, since every write here shares the bits above.
  const int shift = depth - 1 - level;
  const LeafWrite* mid =
      std::partition_point(first, last, [shift](const LeafWrite& w) {
        return ((w.leaf_index >> shift) & 1) == 0;
      });
  NodeRef old_left = node ? node->left : nullptr;
  NodeRef old_right = node ? node->right : nullptr;
  next->left = first == mid
                   ? old_left
                   : PutRec(old_left, level + 1, depth, first, mid, empty);
  next->right = mid == last
                    ? old_right
                    : PutRec(old_right, level + 1, depth, mid, last, empty);
  next->digest = crypto::HashPair(DigestOf(next->left, level + 1, empty),
                                  DigestOf(next->right, level + 1, empty));
  return next;
}

MerkleTree MerkleTree::Clone() const {
  MerkleTree copy(depth_);
  copy.root_ = root_;
  copy.empty_digests_ = empty_digests_;
  return copy;
}

void MerkleTree::Put(const std::string& key, const Bytes& value,
                     int64_t version) {
  LeafWrite write{LeafIndexFor(key, depth_),
                  BucketEntry{key, crypto::Sha256::Hash(value), version}};
  root_ = PutRec(root_, 0, depth_, &write, &write + 1, *empty_digests_);
}

void MerkleTree::PutBatch(const std::vector<Write>& writes, int64_t version) {
  if (writes.empty()) return;
  std::vector<LeafWrite> sorted;
  sorted.reserve(writes.size());
  for (const Write& w : writes) {
    sorted.push_back(
        {LeafIndexFor(*w.key, depth_),
         BucketEntry{*w.key, crypto::Sha256::Hash(*w.value), version}});
  }
  // Stable: writes to one leaf keep their arrival order, so a later write
  // to the same key overwrites an earlier one, as with sequential Put.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const LeafWrite& a, const LeafWrite& b) {
                     return a.leaf_index < b.leaf_index;
                   });
  root_ = PutRec(root_, 0, depth_, sorted.data(), sorted.data() + sorted.size(),
                 *empty_digests_);
}

crypto::Digest MerkleTree::RootDigest() const {
  return DigestOf(root_, 0, *empty_digests_);
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
  return MerkleTree::DigestOf(root_, 0, *empty_digests_);
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

  // Walk down collecting siblings top-down, then reverse to bottom-up.
  std::vector<crypto::Digest> top_down;
  NodeRef node = snapshot.root_;
  for (int level = 0; level < depth; ++level) {
    bool go_right = (proof.leaf_index >> (depth - 1 - level)) & 1;
    NodeRef left = node ? node->left : nullptr;
    NodeRef right = node ? node->right : nullptr;
    top_down.push_back(go_right ? DigestOf(left, level + 1, empty)
                                : DigestOf(right, level + 1, empty));
    node = go_right ? right : left;
  }
  // A null node here means the leaf bucket is empty: the proof carries an
  // empty bucket and doubles as a proof of absence.
  if (node != nullptr) proof.bucket = node->bucket;
  proof.siblings.assign(top_down.rbegin(), top_down.rend());
  return proof;
}

Status MerkleTree::VerifyAbsence(const MerkleProof& proof,
                                 const std::string& key,
                                 const crypto::Digest& root) {
  if (proof.leaf_index != LeafIndexFor(key, static_cast<int>(
                                                proof.siblings.size()))) {
    return Status::VerificationFailed("proof leaf index mismatch for key");
  }
  auto it = std::find_if(
      proof.bucket.begin(), proof.bucket.end(),
      [&key](const BucketEntry& e) { return e.key == key; });
  if (it != proof.bucket.end()) {
    return Status::VerificationFailed("key is present, not absent");
  }
  if (proof.ComputeRoot() != root) {
    return Status::VerificationFailed("computed root does not match");
  }
  return Status::OK();
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
  if (proof.leaf_index != LeafIndexFor(key, static_cast<int>(
                                                proof.siblings.size()))) {
    return Status::VerificationFailed("proof leaf index mismatch for key");
  }
  auto it = std::find_if(
      proof.bucket.begin(), proof.bucket.end(),
      [&key](const BucketEntry& e) { return e.key == key; });
  if (it == proof.bucket.end()) {
    return Status::VerificationFailed("key missing from proof bucket");
  }
  if (it->value_digest != crypto::Sha256::Hash(value)) {
    return Status::VerificationFailed("value digest mismatch");
  }
  if (it->version != version) {
    return Status::VerificationFailed("version mismatch");
  }
  if (proof.ComputeRoot() != root) {
    return Status::VerificationFailed("computed root does not match");
  }
  return Status::OK();
}

}  // namespace transedge::merkle
