#include "core/batch_apply.h"

#include <set>

namespace transedge::core {

CommitQueue BuildCommitQueue(
    const txn::PreparedBatches& prepared,
    const std::vector<const storage::Batch*>& in_flight) {
  std::set<BatchId> committed_in_flight;
  for (const storage::Batch* b : in_flight) {
    for (const storage::CommitRecord& rec : b->committed) {
      committed_in_flight.insert(rec.prepared_in_batch);
    }
  }
  CommitQueue queue;
  for (const txn::PrepareGroup& group : prepared.groups()) {
    if (committed_in_flight.count(group.prepared_in_batch) > 0) continue;
    QueuedGroup& queued = queue.emplace_back();
    queued.prepared_in_batch = group.prepared_in_batch;
    queued.registered = &group;
    for (const txn::PendingTxn& p : group.txns) queued.txns.push_back(&p.txn);
  }
  for (const storage::Batch* b : in_flight) {
    if (b->prepared.empty() || committed_in_flight.count(b->id) > 0) continue;
    QueuedGroup& queued = queue.emplace_back();
    queued.prepared_in_batch = b->id;
    for (const Transaction& t : b->prepared) queued.txns.push_back(&t);
  }
  return queue;
}

Status CheckCommittedPrefix(
    const CommitQueue& queue,
    const std::vector<storage::CommitRecord>& committed) {
  const Status not_prefix = Status::VerificationFailed(
      "committed segment is not a prefix of the commit queue");
  size_t next = 0;
  for (const QueuedGroup& group : queue) {
    if (next == committed.size()) break;
    for (const Transaction* t : group.txns) {
      if (next == committed.size()) return not_prefix;  // Partial group.
      const storage::CommitRecord& rec = committed[next++];
      if (rec.prepared_in_batch != group.prepared_in_batch ||
          rec.txn_id != t->id || rec.coordinator != t->coordinator) {
        return not_prefix;
      }
    }
  }
  return next == committed.size() ? Status::OK() : not_prefix;
}

const storage::ReadOnlySegment* PreviousReadOnlySegment(
    const storage::SmrLog& log,
    const std::vector<const storage::Batch*>& in_flight) {
  if (!in_flight.empty()) return &in_flight.back()->ro;
  if (!log.empty()) return &log.back().batch.ro;
  return nullptr;
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

Status ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                              const storage::PartitionMap& pmap,
                              PartitionId self, const storage::Batch& batch,
                              const CommitQueue& queue) {
  auto in_queue = [&queue](BatchId group, TxnId txn_id) -> const Transaction* {
    for (const QueuedGroup& queued : queue) {
      if (queued.prepared_in_batch != group) continue;
      for (const Transaction* t : queued.txns) {
        if (t->id == txn_id) return t;
      }
      return nullptr;
    }
    return nullptr;
  };
  std::vector<merkle::MerkleTree::Write> writes;
  TE_RETURN_IF_ERROR(storage::ForEachBatchWrite(
      batch, pmap, self, in_queue,
      [&writes](const WriteOp& w) { writes.push_back({&w.key, &w.value}); }));
  tree->PutBatch(writes, batch.id);
  return Status::OK();
}

}  // namespace transedge::core
