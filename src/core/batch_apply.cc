#include "core/batch_apply.h"

namespace transedge::core {

void ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                            const storage::PartitionMap& pmap,
                            PartitionId self, const storage::Batch& batch,
                            const TxnResolver& resolve) {
  // Batch order: local transactions, then committed distributed ones.
  std::vector<merkle::MerkleTree::Write> writes;
  auto collect = [&](const Transaction& t) {
    for (const WriteOp& w : t.write_set) {
      if (pmap.OwnerOf(w.key) == self) writes.push_back({&w.key, &w.value});
    }
  };
  for (const Transaction& t : batch.local) collect(t);
  for (const storage::CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;
    const Transaction* t = resolve(rec.txn_id);
    if (t != nullptr) collect(*t);
  }
  tree->PutBatch(writes, batch.id);
}

void ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                            const storage::PartitionMap& pmap,
                            PartitionId self, const storage::Batch& batch,
                            const txn::PreparedBatches& pending) {
  ApplyBatchWritesToTree(
      tree, pmap, self, batch,
      [&pending](TxnId id) { return pending.FindTxn(id); });
}

}  // namespace transedge::core
