#ifndef TRANSEDGE_CORE_BATCH_APPLY_H_
#define TRANSEDGE_CORE_BATCH_APPLY_H_

#include <vector>

#include "merkle/merkle_tree.h"
#include "storage/batch.h"
#include "storage/partition_map.h"
#include "txn/prepared_batches.h"

namespace transedge::core {

/// A batch's committed segment, defined once for leader and followers
/// (Definition 4.1, Algorithm 1). The commit queue is the registered
/// prepare groups, `txn::PreparedBatches::groups()`: a batch is proposed
/// only after its predecessor decided, and deciding a batch registers
/// its prepare group and pops the groups it commits. The
/// leader commits the ready prefix of that queue and seals the batch
/// with `DeriveLceAndCdVector` over the log tail's read-only segment. A
/// follower, which never sees 2PC decisions, checks that the segment is
/// an exact prefix of the same queue and compares Algorithm 1's output
/// with the batch's read-only segment. Every replay of a batch's writes
/// resolves its records through `storage::ForEachBatchWrite`.

/// The follower's rule: OK iff `committed` holds exactly the transactions
/// of a prefix of `prepared`'s groups (whole groups, in queue and group
/// order), each record naming its own group and its transaction's
/// coordinator.
Status CheckCommittedPrefix(
    const txn::PreparedBatches& prepared,
    const std::vector<storage::CommitRecord>& committed);

/// Algorithm 1 for batch `batch_id` of partition `self`: the LCE moves to
/// the last committed group (carried forward when `committed` is empty);
/// the CD vector is `previous`'s, maxed with the participant CD vectors
/// of every committing record, with `self`'s entry set to `batch_id`.
/// Fills `lce` and `cd_vector` only.
storage::ReadOnlySegment DeriveLceAndCdVector(
    const storage::ReadOnlySegment* previous,
    const std::vector<storage::CommitRecord>& committed, PartitionId self,
    BatchId batch_id, size_t num_partitions);

/// Resolves a commit record inside the registered group it names; the
/// lookup of the tree replay below and of the node's install step.
storage::GroupTxnLookup InRegisteredGroups(
    const txn::PreparedBatches& prepared);

/// Replays the writes `batch` applies to partition `self` onto `tree` as
/// one `MerkleTree::PutBatch`, resolving each commit record through
/// `InRegisteredGroups`. Shared by the leader's seal, follower
/// validation and catch-up.
Status ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                              const storage::PartitionMap& pmap,
                              PartitionId self, const storage::Batch& batch,
                              const txn::PreparedBatches& prepared);

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_BATCH_APPLY_H_
