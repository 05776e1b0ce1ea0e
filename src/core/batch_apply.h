#ifndef TRANSEDGE_CORE_BATCH_APPLY_H_
#define TRANSEDGE_CORE_BATCH_APPLY_H_

#include <vector>

#include "merkle/merkle_tree.h"
#include "storage/batch.h"
#include "storage/partition_map.h"
#include "storage/smr_log.h"
#include "txn/prepared_batches.h"

namespace transedge::core {

/// A batch's committed segment, defined once for leader and followers
/// (Definition 4.1, Algorithm 1). The leader commits the ready prefix of
/// the commit queue and seals the batch with `DeriveLceAndCdVector`. A
/// follower, which never sees 2PC decisions, checks that the segment is
/// an exact prefix of the same queue and compares Algorithm 1's output
/// with the batch's read-only segment. Every replay of a batch's writes
/// resolves its records through `storage::ForEachBatchWrite`.

/// One prepare group a new batch may commit.
struct QueuedGroup {
  BatchId prepared_in_batch = kNoBatch;
  /// The group's transactions, in prepare order.
  std::vector<const Transaction*> txns;
  /// The registered group, which carries the 2PC decisions; nullptr for
  /// the prepare segment of an in-flight batch, whose 2PC has not begun.
  const txn::PrepareGroup* registered = nullptr;

  bool Ready() const { return registered != nullptr && registered->Ready(); }
};

/// The prepare groups a new batch may commit from, in prepare order.
using CommitQueue = std::vector<QueuedGroup>;

/// The commit queue of a batch proposed after `in_flight` (proposed but
/// undecided batches, in log order): the registered groups, then the
/// in-flight batches' prepare segments, leaving out every group an
/// in-flight batch already commits. Borrows from both arguments.
CommitQueue BuildCommitQueue(
    const txn::PreparedBatches& prepared,
    const std::vector<const storage::Batch*>& in_flight);

/// The follower's rule: OK iff `committed` holds exactly the transactions
/// of a prefix of `queue` (whole groups, in queue and group order), each
/// record naming its own group and its transaction's coordinator.
Status CheckCommittedPrefix(
    const CommitQueue& queue,
    const std::vector<storage::CommitRecord>& committed);

/// The read-only segment a new batch chains its LCE and CD vector from:
/// the last in-flight batch's, else the log tail's; nullptr for neither.
const storage::ReadOnlySegment* PreviousReadOnlySegment(
    const storage::SmrLog& log,
    const std::vector<const storage::Batch*>& in_flight);

/// Algorithm 1 for batch `batch_id` of partition `self`: the LCE moves to
/// the last committed group (carried forward when `committed` is empty);
/// the CD vector is `previous`'s, maxed with the participant CD vectors
/// of every committing record, with `self`'s entry set to `batch_id`.
/// Fills `lce` and `cd_vector` only.
storage::ReadOnlySegment DeriveLceAndCdVector(
    const storage::ReadOnlySegment* previous,
    const std::vector<storage::CommitRecord>& committed, PartitionId self,
    BatchId batch_id, size_t num_partitions);

/// Replays the writes `batch` applies to partition `self` onto `tree` as
/// one `MerkleTree::PutBatch`, resolving each commit record inside the
/// queued group it names. Shared by the leader's seal, follower
/// validation and catch-up.
Status ApplyBatchWritesToTree(merkle::MerkleTree* tree,
                              const storage::PartitionMap& pmap,
                              PartitionId self, const storage::Batch& batch,
                              const CommitQueue& queue);

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_BATCH_APPLY_H_
