#include "core/node_context.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace transedge::core {

void NodeContext::ForEachUnappliedBatch(
    const std::function<void(const storage::LogEntry&)>& fn) const {
  for (BatchId id = last_applied() + 1; id <= log().LastBatchId(); ++id) {
    fn(*log().Get(id).value());
  }
}

sim::Time NodeContext::BatchComputeCost(size_t n, sim::Time per_txn) const {
  double quad = config().cost.batch_quadratic_ns * static_cast<double>(n) *
                static_cast<double>(n) / 1000.0;
  return config().cost.batch_overhead +
         per_txn * static_cast<sim::Time>(n) + static_cast<sim::Time>(quad);
}

Status NodeContext::CheckReadVersions(const Transaction& txn) const {
  for (const ReadOp& r : txn.read_set) {
    if (!Owns(r.key)) continue;
    BatchId latest = store().LatestVersion(r.key);
    if (latest != r.version) {
      return Status::Conflict("read of key '" + r.key + "' at version " +
                              std::to_string(r.version) +
                              " overwritten; latest is " +
                              std::to_string(latest));
    }
  }
  return Status::OK();
}

Result<storage::VersionedValue> NodeContext::ReadApplied(
    const Key& key) const {
  return store().GetAsOf(key, std::max<BatchId>(last_applied(), 0));
}

std::vector<wire::AuthenticatedRead> NodeContext::CertifiedReads(
    BatchId batch_id, const std::vector<Key>& keys) const {
  assert(batch_id >= history_horizon() && batch_id <= last_applied());
  const merkle::MerkleTree::Snapshot& snap = SnapshotAt(batch_id);
  std::vector<wire::AuthenticatedRead> reads;
  reads.reserve(keys.size());
  for (const Key& key : keys) {
    wire::AuthenticatedRead read;
    read.key = key;
    Result<storage::VersionedValue> value = store().GetAsOf(key, batch_id);
    if (value.ok()) {
      read.found = true;
      read.value = value->value;
      read.version = value->version;
    }
    Result<merkle::MerkleProof> proof = merkle::MerkleTree::ProveAt(snap, key);
    if (proof.ok()) read.proof = std::move(proof).value();
    reads.push_back(std::move(read));
  }
  return reads;
}

void NodeContext::ReplyCommit(sim::ActorId client, TxnId txn_id,
                              bool committed, const std::string& reason,
                              sim::Time at, bool retryable) {
  wire::CommitReply reply;
  reply.txn_id = txn_id;
  reply.committed = committed;
  reply.reason = reason;
  reply.retryable = retryable;
  Send(client, ShareMsg(std::move(reply)), at);
}

}  // namespace transedge::core
