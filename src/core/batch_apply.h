#ifndef TRANSEDGE_CORE_BATCH_APPLY_H_
#define TRANSEDGE_CORE_BATCH_APPLY_H_

#include <functional>

#include "merkle/merkle_tree.h"
#include "storage/batch.h"
#include "storage/partition_map.h"
#include "txn/prepared_batches.h"

namespace transedge::core {

/// Resolves the transaction object behind a commit record's id; nullptr
/// when unknown (the record's writes are then skipped). The plain
/// overload below resolves through `PreparedBatches`; pipelined
/// validation overlays the prepare segments of in-flight predecessor
/// batches whose groups are not registered yet.
using TxnResolver = std::function<const Transaction*(TxnId)>;

/// Applies the writes a batch commits (local transactions + committed
/// distributed transactions) to `tree`, restricted to partition `self`'s
/// keys. Write sets of commit records are resolved through `resolve`.
/// The writes go in as one `MerkleTree::PutBatch`. Shared by the leader's
/// proposal path, replica re-validation and catch-up.
void ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                            const storage::PartitionMap& pmap,
                            PartitionId self, const storage::Batch& batch,
                            const TxnResolver& resolve);

/// Convenience overload resolving commit records through `pending`.
void ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                            const storage::PartitionMap& pmap,
                            PartitionId self, const storage::Batch& batch,
                            const txn::PreparedBatches& pending);

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_BATCH_APPLY_H_
