#ifndef TRANSEDGE_TXN_PREPARED_BATCHES_H_
#define TRANSEDGE_TXN_PREPARED_BATCHES_H_

#include <deque>
#include <vector>

#include "common/result.h"
#include "storage/batch.h"
#include "txn/footprint_index.h"
#include "txn/types.h"

namespace transedge::txn {

/// One distributed transaction waiting for its 2PC outcome.
struct PendingTxn {
  enum class State { kWaiting, kCommitted, kAborted };

  Transaction txn;
  State state = State::kWaiting;
  /// Prepared messages collected from all participants; carried into the
  /// commit record for CD-vector derivation (Algorithm 1).
  std::vector<storage::PreparedInfo> participant_info;
};

/// A prepare group (§4.3.3(a)): all distributed transactions whose
/// prepare records landed in the same batch. The ordering constraint
/// (Definition 4.1) forces groups to commit in prepare-batch order, which
/// is what allows a single number per partition in the CD vector.
struct PrepareGroup {
  BatchId prepared_in_batch = kNoBatch;
  std::vector<PendingTxn> txns;

  /// True when every transaction has a decision.
  bool Ready() const;

  /// The group's transaction `txn_id`; nullptr when it holds none.
  const Transaction* Find(TxnId txn_id) const;
};

/// The "prepared batches" data structure of Figure 2: the leader's (and
/// every replica's) view of which prepare groups are still waiting on
/// 2PC outcomes, together with their pending footprint (rule 3 of
/// Definition 3.1), which `AddGroup` and `PopGroup` keep in step.
class PreparedBatches {
 public:
  PreparedBatches() = default;

  /// Registers the prepare group of freshly written batch `batch_id` and
  /// adds its transactions to the footprint. Empty groups are not
  /// stored. Groups must be added in batch order.
  void AddGroup(BatchId batch_id, std::vector<PendingTxn> txns);

  /// Records the 2PC outcome of `txn_id`. NotFound if the transaction is
  /// not pending (e.g. a duplicate decision).
  Status RecordDecision(TxnId txn_id, bool committed,
                        std::vector<storage::PreparedInfo> participant_info);

  /// Removes and returns the group prepared in `batch_id`, wherever it
  /// sits in the queue, and releases its footprint; NotFound when no such
  /// group is registered. The safe way to consume a certified batch's
  /// committed segment: popping positionally would silently apply the
  /// wrong group's writes if the queue order ever diverged from the
  /// certified commit order.
  Result<PrepareGroup> PopGroup(BatchId batch_id);

  /// Every registered group, oldest first: the commit queue a new batch
  /// commits from (core/batch_apply.h). References are invalidated by
  /// mutations.
  const std::deque<PrepareGroup>& groups() const { return groups_; }

  /// Footprint of every registered transaction, decided or not, for
  /// admission and batch re-validation.
  const FootprintIndex& footprint() const { return footprint_; }

  /// Pointers to every still-undecided transaction.
  std::vector<const Transaction*> PendingTransactions() const;

  /// The transaction object for `txn_id` regardless of decision state;
  /// nullptr when unknown. Used to resolve the write sets of commit
  /// records while applying a batch.
  const Transaction* FindTxn(TxnId txn_id) const;

  /// The batch the group holding `txn_id` was prepared in, or kNoBatch
  /// when no registered group contains it. A leader resuming an
  /// inherited prepare group uses this to fetch the prepare batch's
  /// certificate and CD vector from the log.
  BatchId GroupOf(TxnId txn_id) const;

 private:
  std::deque<PrepareGroup> groups_;
  FootprintIndex footprint_;
};

}  // namespace transedge::txn

#endif  // TRANSEDGE_TXN_PREPARED_BATCHES_H_
