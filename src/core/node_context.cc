#include "core/node_context.h"

#include <algorithm>

#include "wire/message.h"

namespace transedge::core {

Transaction NodeContext::RestrictToPartition(const Transaction& txn) const {
  Transaction out;
  out.id = txn.id;
  out.participants = txn.participants;
  out.coordinator = txn.coordinator;
  out.read_set = partition_map().ReadsFor(txn, partition());
  out.write_set = partition_map().WritesFor(txn, partition());
  return out;
}

sim::Time NodeContext::BatchComputeCost(const std::vector<size_t>& shard_sizes,
                                        sim::Time per_txn) const {
  size_t total = 0;
  double quad = 0.0;
  for (size_t n : shard_sizes) {
    total += n;
    quad += config().cost.batch_quadratic_ns * static_cast<double>(n) *
            static_cast<double>(n) / 1000.0;
  }
  return config().cost.batch_overhead +
         per_txn * static_cast<sim::Time>(total) +
         static_cast<sim::Time>(quad);
}

Status NodeContext::CheckReadVersions(const Transaction& txn) const {
  for (const ReadOp& r : txn.read_set) {
    BatchId latest = LatestDecidedVersion(r.key);
    if (latest != r.version) {
      return Status::Conflict("read of key '" + r.key + "' at version " +
                              std::to_string(r.version) +
                              " overwritten; latest is " +
                              std::to_string(latest));
    }
  }
  return Status::OK();
}

sim::Time NodeContext::ShardedApplyCost(
    size_t batch_size, const std::vector<size_t>& shard_write_loads) const {
  const CostModel& cost = config().cost;
  size_t shards = shard_write_loads.size();
  if (shards <= 1) {
    return BatchComputeCost({batch_size}, cost.apply_per_txn);
  }
  size_t total_writes = 0;
  size_t max_writes = 0;
  for (size_t w : shard_write_loads) {
    total_writes += w;
    max_writes = std::max(max_writes, w);
  }
  double quad = config().cost.batch_quadratic_ns *
                static_cast<double>(batch_size) *
                static_cast<double>(batch_size) / 1000.0;
  sim::Time variable_serial =
      cost.apply_per_txn * static_cast<sim::Time>(batch_size) +
      static_cast<sim::Time>(quad);
  // Wall-clock of the parallel section is the slowest shard; a batch
  // with no writes still pays the serial variable term divided evenly.
  sim::Time parallel =
      total_writes == 0
          ? variable_serial / static_cast<sim::Time>(shards)
          : static_cast<sim::Time>(
                static_cast<double>(variable_serial) *
                static_cast<double>(max_writes) /
                static_cast<double>(total_writes));
  return cost.batch_overhead + parallel +
         cost.apply_shard_recombine * static_cast<sim::Time>(shards);
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
