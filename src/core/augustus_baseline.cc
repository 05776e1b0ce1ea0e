#include "core/augustus_baseline.h"

#include <algorithm>
#include <utility>

namespace transedge::core {

AugustusBaseline::AugustusBaseline(NodeContext* ctx) : ctx_(ctx) {}

void AugustusBaseline::HandleRoRequest(sim::ActorId from,
                                       const wire::AugustusRoRequest& msg) {
  sim::ActorId client = msg.reply_to != 0 ? msg.reply_to : from;
  lock_table_.Lock(msg.request_id, msg.keys);

  Pending pending;
  pending.client = client;
  pending.keys = msg.keys;
  pending.voters = {ctx_->id()};
  pending_[msg.request_id] = std::move(pending);

  wire::AugustusVoteRequest vote;
  vote.request_id = msg.request_id;
  vote.keys = msg.keys;
  vote.snapshot_batch = ctx_->log().LastBatchId();
  ctx_->BroadcastToCluster(
      ShareMsg(std::move(vote)),
      ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                   static_cast<sim::Time>(msg.keys.size())));
}

void AugustusBaseline::HandleVoteRequest(sim::ActorId from,
                                         const wire::AugustusVoteRequest& msg) {
  wire::AugustusVoteReply reply;
  reply.request_id = msg.request_id;
  reply.vote = true;
  Encoder enc;
  enc.PutString("augustus-vote");
  enc.PutU64(msg.request_id);
  reply.signature = ctx_->Sign(enc.buffer());
  ctx_->Send(from, ShareMsg(std::move(reply)),
             ctx_->Charge(ctx_->config().cost.signature_op));
}

void AugustusBaseline::HandleVoteReply(sim::ActorId from,
                                       const wire::AugustusVoteReply& msg) {
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  const std::vector<crypto::NodeId>& members = ctx_->cluster_members();
  if (msg.vote &&
      std::find(members.begin(), members.end(), from) != members.end()) {
    pending.voters.insert(from);
  }
  if (pending.replied || pending.voters.size() < ctx_->config().quorum_size()) {
    return;
  }
  pending.replied = true;

  wire::AugustusRoReply reply;
  reply.request_id = msg.request_id;
  reply.partition = ctx_->partition();
  reply.votes = static_cast<uint32_t>(pending.voters.size());
  for (const Key& key : pending.keys) {
    wire::AuthenticatedRead read;
    read.key = key;
    Result<storage::VersionedValue> value = ctx_->ReadApplied(key);
    if (value.ok()) {
      read.found = true;
      read.value = value->value;
      read.version = value->version;
    }
    reply.entries.push_back(std::move(read));
  }
  ++stats_.augustus_ro_served;
  ctx_->Send(pending.client, ShareMsg(std::move(reply)),
             ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                          static_cast<sim::Time>(pending.keys.size())));
}

void AugustusBaseline::HandleRelease(sim::ActorId from,
                                     const wire::AugustusRelease& msg) {
  (void)from;
  lock_table_.Release(msg.request_id);
  pending_.erase(msg.request_id);
}

}  // namespace transedge::core
