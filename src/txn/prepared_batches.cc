#include "txn/prepared_batches.h"

#include <cassert>

namespace transedge::txn {

bool PrepareGroup::Ready() const {
  for (const PendingTxn& t : txns) {
    if (t.state == PendingTxn::State::kWaiting) return false;
  }
  return true;
}

const Transaction* PrepareGroup::Find(TxnId txn_id) const {
  for (const PendingTxn& t : txns) {
    if (t.txn.id == txn_id) return &t.txn;
  }
  return nullptr;
}

void PreparedBatches::AddGroup(BatchId batch_id, std::vector<PendingTxn> txns) {
  if (txns.empty()) return;
  assert(groups_.empty() || groups_.back().prepared_in_batch < batch_id);
  for (const PendingTxn& pending : txns) footprint_.Add(pending.txn);
  PrepareGroup group;
  group.prepared_in_batch = batch_id;
  group.txns = std::move(txns);
  groups_.push_back(std::move(group));
}

Status PreparedBatches::RecordDecision(
    TxnId txn_id, bool committed,
    std::vector<storage::PreparedInfo> participant_info) {
  for (PrepareGroup& group : groups_) {
    for (PendingTxn& pending : group.txns) {
      if (pending.txn.id != txn_id) continue;
      if (pending.state != PendingTxn::State::kWaiting) {
        return Status::AlreadyExists("decision already recorded for txn " +
                                     std::to_string(txn_id));
      }
      pending.state = committed ? PendingTxn::State::kCommitted
                                : PendingTxn::State::kAborted;
      pending.participant_info = std::move(participant_info);
      return Status::OK();
    }
  }
  return Status::NotFound("txn not pending: " + std::to_string(txn_id));
}

Result<PrepareGroup> PreparedBatches::PopGroup(BatchId batch_id) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (it->prepared_in_batch != batch_id) continue;
    for (const PendingTxn& pending : it->txns) footprint_.Remove(pending.txn);
    PrepareGroup group = std::move(*it);
    groups_.erase(it);
    return group;
  }
  return Status::NotFound("no prepare group for batch " +
                          std::to_string(batch_id));
}

std::vector<const Transaction*> PreparedBatches::PendingTransactions() const {
  std::vector<const Transaction*> out;
  for (const PrepareGroup& group : groups_) {
    for (const PendingTxn& pending : group.txns) {
      if (pending.state == PendingTxn::State::kWaiting) {
        out.push_back(&pending.txn);
      }
    }
  }
  return out;
}

const Transaction* PreparedBatches::FindTxn(TxnId txn_id) const {
  for (const PrepareGroup& group : groups_) {
    if (const Transaction* t = group.Find(txn_id)) return t;
  }
  return nullptr;
}

BatchId PreparedBatches::GroupOf(TxnId txn_id) const {
  for (const PrepareGroup& group : groups_) {
    if (group.Find(txn_id) != nullptr) return group.prepared_in_batch;
  }
  return kNoBatch;
}

}  // namespace transedge::txn
