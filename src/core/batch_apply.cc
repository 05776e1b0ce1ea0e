#include "core/batch_apply.h"

namespace transedge::core {

Status CheckCommittedPrefix(
    const txn::PreparedBatches& prepared,
    const std::vector<storage::CommitRecord>& committed) {
  const Status not_prefix = Status::VerificationFailed(
      "committed segment is not a prefix of the commit queue");
  size_t next = 0;
  for (const txn::PrepareGroup& group : prepared.groups()) {
    if (next == committed.size()) break;
    for (const txn::PendingTxn& pending : group.txns) {
      if (next == committed.size()) return not_prefix;  // Partial group.
      const storage::CommitRecord& rec = committed[next++];
      if (rec.prepared_in_batch != group.prepared_in_batch ||
          rec.txn_id != pending.txn.id ||
          rec.coordinator != pending.txn.coordinator) {
        return not_prefix;
      }
    }
  }
  return next == committed.size() ? Status::OK() : not_prefix;
}

storage::ReadOnlySegment DeriveLceAndCdVector(
    const storage::ReadOnlySegment* previous,
    const std::vector<storage::CommitRecord>& committed, PartitionId self,
    BatchId batch_id, size_t num_partitions) {
  storage::ReadOnlySegment ro;
  if (previous != nullptr) {
    ro.lce = previous->lce;
    ro.cd_vector = previous->cd_vector;
  }
  if (ro.cd_vector.empty()) ro.cd_vector = txn::CdVector(num_partitions);
  if (!committed.empty()) ro.lce = committed.back().prepared_in_batch;
  for (const storage::CommitRecord& rec : committed) {
    if (!rec.committed) continue;  // Aborts introduce no dependencies.
    for (const storage::PreparedInfo& info : rec.participant_info) {
      if (info.cd_vector.size() == ro.cd_vector.size()) {
        ro.cd_vector.PairwiseMax(info.cd_vector);
      }
    }
  }
  ro.cd_vector.Set(self, batch_id);
  return ro;
}

storage::GroupTxnLookup InRegisteredGroups(
    const txn::PreparedBatches& prepared) {
  return [&prepared](BatchId group, TxnId txn_id) -> const Transaction* {
    for (const txn::PrepareGroup& registered : prepared.groups()) {
      if (registered.prepared_in_batch == group) {
        return registered.Find(txn_id);
      }
    }
    return nullptr;
  };
}

Status ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                              const storage::PartitionMap& pmap,
                              PartitionId self, const storage::Batch& batch,
                              const txn::PreparedBatches& prepared) {
  std::vector<merkle::MerkleTree::Write> writes;
  std::vector<crypto::Digest> key_digests;
  TE_RETURN_IF_ERROR(storage::ForEachBatchWrite(
      batch, pmap, self, InRegisteredGroups(prepared),
      [&](const WriteOp& w, const crypto::Digest& key_digest) {
        writes.push_back({&w.key, &w.value, batch.id});
        key_digests.push_back(key_digest);
      }));
  // Each key was hashed once, for ownership; its leaf comes from the same
  // digest. The digests no longer move, so the writes can point at them.
  for (size_t i = 0; i < writes.size(); ++i) {
    writes[i].key_digest = &key_digests[i];
  }
  tree->PutBatch(writes);
  return Status::OK();
}

}  // namespace transedge::core
