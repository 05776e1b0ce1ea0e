#ifndef TRANSEDGE_STORAGE_BATCH_H_
#define TRANSEDGE_STORAGE_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "txn/cd_vector.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "storage/partition_map.h"
#include "txn/types.h"

namespace transedge::storage {

/// What one participant reported in its 2PC `prepared` message for a
/// distributed transaction: its vote, the batch its prepare record landed
/// in, and — crucially for Algorithm 1 — the CD vector of that batch,
/// which carries the participant's direct and transitive dependencies
/// (§4.3.3(c)).
struct PreparedInfo {
  PartitionId partition = 0;
  BatchId prepared_in_batch = kNoBatch;
  bool vote = false;
  txn::CdVector cd_vector;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.partition, self.prepared_in_batch, self.vote, self.cd_vector);
  }
  bool operator==(const PreparedInfo&) const = default;
};

/// A commit record in the committed segment: the coordinator's decision
/// for a distributed transaction together with the collected prepared
/// messages (§3.3.4).
struct CommitRecord {
  TxnId txn_id = 0;
  bool committed = false;  // false = aborted by the coordinator
  /// Batch at *this* partition whose prepared segment holds the txn.
  BatchId prepared_in_batch = kNoBatch;
  std::vector<PreparedInfo> participant_info;
  /// Partition that coordinated the decision. Only its leader fans the
  /// record out to participants; everyone else just applies it.
  PartitionId coordinator = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.txn_id, self.committed, self.prepared_in_batch,
      self.participant_info, self.coordinator);
  }
  bool operator==(const CommitRecord&) const = default;
};

/// The read-only segment of a batch (Figure 2, segment 4): everything a
/// snapshot read-only transaction needs — the CD vector, the LCE, the
/// Merkle root certifying the post-batch state, and a freshness
/// timestamp (§4.4.2).
struct ReadOnlySegment {
  txn::CdVector cd_vector;
  BatchId lce = kNoBatch;
  crypto::Digest merkle_root;
  /// Leader-claimed wall-clock (simulated) microseconds; replicas reject
  /// batches whose timestamp falls outside the configured window.
  int64_t timestamp_us = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.cd_vector, self.lce, self.merkle_root, self.timestamp_us);
  }
  bool operator==(const ReadOnlySegment&) const = default;

  /// Digest over the serialized segment. Covered by batch certificates
  /// so that a read-only client can authenticate the CD vector, LCE, and
  /// timestamp it receives from a single (possibly lying) node.
  crypto::Digest ComputeDigest() const;
};

/// One batch of the SMR log (Figure 2): local transactions, newly
/// prepared distributed transactions, commit records of a ready prepare
/// group, and the read-only segment.
struct Batch {
  PartitionId partition = 0;
  BatchId id = kNoBatch;
  std::vector<Transaction> local;
  std::vector<Transaction> prepared;
  std::vector<CommitRecord> committed;
  ReadOnlySegment ro;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.partition, self.id, self.local, self.prepared, self.committed,
      self.ro);
  }
  bool operator==(const Batch&) const = default;

  /// Canonical digest over the serialized batch; this is what the
  /// intra-cluster consensus agrees on and what certificates sign.
  crypto::Digest ComputeDigest() const;

  size_t TotalTransactions() const {
    return local.size() + prepared.size() + committed.size();
  }
};

/// Finds transaction `txn_id` in the prepare group of batch `group`, the
/// group a commit record names; nullptr when the lookup knows no such
/// group or the group does not hold that transaction.
using GroupTxnLookup =
    std::function<const Transaction*(BatchId group, TxnId txn_id)>;

/// The one rule for the writes `batch` applies to partition `self`, in
/// apply order: its local transactions, then the transaction of each
/// committing record, resolved inside the group the record names.
/// Aborting records write nothing. Calls `fn` for every write `self`
/// owns, with the SHA-256 of its key, which ownership was decided from.
/// Fails at the first committing record `lookup` cannot resolve.
Status ForEachBatchWrite(
    const Batch& batch, const PartitionMap& pmap, PartitionId self,
    const GroupTxnLookup& lookup,
    const std::function<void(const WriteOp&, const crypto::Digest& key_digest)>&
        fn);

/// Proof that a cluster certified a batch: f+1 replica signatures over
/// (partition, batch id, batch digest, merkle root). A single node can
/// attach this to a read-only response and the client can trust it
/// without contacting the other replicas (§4.1, §4.2).
struct BatchCertificate {
  PartitionId partition = 0;
  BatchId batch_id = kNoBatch;
  crypto::Digest batch_digest;
  crypto::Digest merkle_root;
  /// Digest of the batch's read-only segment (CD vector, LCE, timestamp).
  crypto::Digest ro_digest;
  crypto::SignatureSet signatures;

  /// The exact bytes each replica signs.
  Bytes SignedPayload() const;

  /// OK iff at least `required` valid distinct member signatures cover
  /// the payload.
  Status Verify(const crypto::Verifier& verifier, size_t required,
                const std::vector<crypto::NodeId>& member_ids) const;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.partition, self.batch_id, self.batch_digest, self.merkle_root,
      self.ro_digest, self.signatures);
  }
  bool operator==(const BatchCertificate&) const = default;
};

}  // namespace transedge::storage

#endif  // TRANSEDGE_STORAGE_BATCH_H_
