#include "core/read_only_service.h"

#include <algorithm>
#include <utility>

namespace transedge::core {

ReadOnlyService::ReadOnlyService(NodeContext* ctx) : ctx_(ctx) {}

void ReadOnlyService::HandleClientRead(sim::ActorId from,
                                       const wire::ClientReadRequest& msg) {
  wire::ClientReadReply reply;
  reply.request_id = msg.request_id;
  reply.key = msg.key;
  Result<storage::VersionedValue> value = ctx_->ReadApplied(msg.key);
  if (value.ok()) {
    reply.found = true;
    reply.value = value->value;
    reply.version = value->version;
  }
  sim::Time done = ctx_->Charge(ctx_->config().cost.ro_serve_per_key);
  ctx_->Send(msg.reply_to != 0 ? msg.reply_to : from, ShareMsg(std::move(reply)),
             done);
}

wire::RoReply ReadOnlyService::UnserviceableReply(uint64_t request_id) const {
  // batch_id == kNoBatch tells the client no certified state can serve
  // the request right now; it retries (possibly against a fresher view).
  wire::RoReply reply;
  reply.request_id = request_id;
  reply.partition = ctx_->partition();
  reply.batch_id = kNoBatch;
  return reply;
}

void ReadOnlyService::ServeAt(sim::ActorId client, uint64_t request_id,
                              const std::vector<Key>& keys, BatchId batch_id,
                              bool second_round) {
  sim::Time done = ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                                    static_cast<sim::Time>(keys.size()) +
                                ctx_->config().cost.signature_op);
  // A batch below the authoritative history horizon — the bound the
  // storage backend truncates version history and log entries against —
  // has no snapshot left, and nothing applied (kNoBatch) lies below every
  // horizon: the client retries.
  Result<const storage::LogEntry*> entry = ctx_->log().Get(batch_id);
  if (batch_id < ctx_->history_horizon() || !entry.ok()) {
    ctx_->Send(client, ShareMsg(UnserviceableReply(request_id)), done);
    return;
  }

  wire::RoReply reply;
  reply.request_id = request_id;
  reply.partition = ctx_->partition();
  reply.batch_id = batch_id;
  reply.certificate = entry.value()->certificate;
  reply.cd_vector = entry.value()->batch.ro.cd_vector;
  reply.lce = entry.value()->batch.ro.lce;
  reply.timestamp_us = entry.value()->batch.ro.timestamp_us;
  reply.second_round = second_round;
  reply.entries = ctx_->CertifiedReads(batch_id, keys);

  if (ctx_->byzantine() == ByzantineBehavior::kTamperReadValue) {
    for (wire::AuthenticatedRead& read : reply.entries) {
      if (read.found && !read.value.empty()) {
        read.value[0] ^= 0xff;  // Client-side Merkle check must catch this.
        break;
      }
    }
  }
  ++(second_round ? stats_.ro_round2_served : stats_.ro_round1_served);
  ctx_->Send(client, ShareMsg(std::move(reply)), done);
}

void ReadOnlyService::HandleRoRequest(sim::ActorId from,
                                      const wire::RoRequest& msg) {
  // Serve the newest batch clients may see: the applied head, which
  // trails the log tail while apply is charged on the apply worker.
  BatchId batch_id = ctx_->last_applied();
  if (ctx_->byzantine() == ByzantineBehavior::kStaleSnapshot && batch_id > 0) {
    // Old but certified: lag by one standard truncation period, capped to
    // the *configured* snapshot window — a hardcoded 64 would pin the
    // batch below a smaller window and bounce off the horizon check in
    // ServeAt instead of serving a stale-but-verifiable reply.
    const BatchId lag = std::min<BatchId>(
        64, static_cast<BatchId>(ctx_->config().snapshot_history) - 1);
    batch_id = std::max<BatchId>(ctx_->history_horizon(), batch_id - lag);
  }
  ServeAt(msg.reply_to != 0 ? msg.reply_to : from, msg.request_id, msg.keys,
          batch_id, /*second_round=*/false);
}

BatchId ReadOnlyService::FindBatchWithLce(BatchId min_lce) const {
  const storage::SmrLog& log = ctx_->log();
  if (ctx_->last_applied() == kNoBatch) return kNoBatch;
  // LCE is non-decreasing across batches: binary search for the earliest
  // batch satisfying the dependency. History older than the authoritative
  // horizon cannot be served (snapshots and log entries are truncated
  // together there), so the search floor is that horizon; the ceiling is
  // the applied head — clients see no later batch.
  BatchId lo = ctx_->history_horizon();
  BatchId hi = ctx_->last_applied();
  Result<const storage::LogEntry*> last = log.Get(hi);
  if (!last.ok() || last.value()->batch.ro.lce < min_lce) return kNoBatch;
  while (lo < hi) {
    BatchId mid = lo + (hi - lo) / 2;
    Result<const storage::LogEntry*> entry = log.Get(mid);
    if (!entry.ok()) return kNoBatch;  // Below the first retained entry.
    if (entry.value()->batch.ro.lce >= min_lce) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void ReadOnlyService::HandleRoBatchRequest(sim::ActorId from,
                                           const wire::RoBatchRequest& msg) {
  sim::ActorId client = msg.reply_to != 0 ? msg.reply_to : from;
  const storage::SmrLog& log = ctx_->log();
  // A dependency further ahead of the log than the whole retained window
  // cannot come from an honest round-1 reply (dependencies are batch ids
  // this cluster already certified): answer unserviceable instead of
  // parking the request — and its client — forever.
  BatchId horizon = log.LastBatchId() +
                    static_cast<BatchId>(ctx_->config().snapshot_history);
  if (msg.min_lce > horizon) {
    sim::Time done = ctx_->Charge(ctx_->config().cost.message_handling);
    ++stats_.ro_round2_rejected;
    ctx_->Send(client, ShareMsg(UnserviceableReply(msg.request_id)), done);
    return;
  }
  BatchId batch_id = FindBatchWithLce(msg.min_lce);
  if (batch_id == kNoBatch) {
    // The dependency has prepared here but not yet committed; park the
    // request until a batch with a sufficient LCE is written.
    ++stats_.ro_round2_parked;
    ParkedRo parked;
    parked.client = client;
    parked.request = msg;
    parked.parked_tail = log.LastBatchId();
    parked_ro_.push_back(std::move(parked));
    return;
  }
  ServeAt(client, msg.request_id, msg.keys, batch_id, /*second_round=*/true);
}

void ReadOnlyService::ServeParkedRequests() {
  if (parked_ro_.empty()) return;
  std::vector<ParkedRo> still_parked;
  for (ParkedRo& parked : parked_ro_) {
    BatchId batch_id = FindBatchWithLce(parked.request.min_lce);
    if (batch_id == kNoBatch) {
      still_parked.push_back(std::move(parked));
      continue;
    }
    ServeAt(parked.client, parked.request.request_id, parked.request.keys,
            batch_id, /*second_round=*/true);
  }
  parked_ro_ = std::move(still_parked);
}

void ReadOnlyService::OnHistoryTruncated(BatchId horizon) {
  if (parked_ro_.empty()) return;
  std::vector<ParkedRo> still_parked;
  for (ParkedRo& parked : parked_ro_) {
    // A full snapshot window has been applied *and truncated* past the
    // park point without the LCE catching up: the dependency must have
    // aborted (or its client given up). Stop waiting, tell the client.
    if (parked.parked_tail >= horizon) {
      still_parked.push_back(std::move(parked));
      continue;
    }
    sim::Time done = ctx_->Charge(ctx_->config().cost.message_handling);
    ++stats_.ro_round2_aborted;
    ctx_->Send(parked.client,
               ShareMsg(UnserviceableReply(parked.request.request_id)), done);
  }
  parked_ro_ = std::move(still_parked);
}

}  // namespace transedge::core
