#include "core/watch_service.h"

#include <map>
#include <utility>

namespace transedge::core {

WatchService::WatchService(NodeContext* ctx) : ctx_(ctx) {}

BatchId WatchService::ReplayFloor() const {
  if (ctx_->last_applied() == kNoBatch) return kNoBatch;
  // `recent_writes_` covers (floor, last_applied] contiguously; a fresh
  // (or freshly recovered) service has recorded nothing, so only a
  // resume exactly at the applied head can chain without a gap.
  if (recent_writes_.empty()) return ctx_->last_applied();
  return recent_writes_.front().first - 1;
}

std::vector<wire::AuthenticatedRead> WatchService::BuildEntries(
    BatchId batch_id, const std::vector<Key>& keys) {
  std::vector<wire::AuthenticatedRead> entries;
  entries.reserve(keys.size());
  const merkle::MerkleTree::Snapshot& snap = ctx_->SnapshotAt(batch_id);
  for (const Key& key : keys) {
    wire::AuthenticatedRead read;
    read.key = key;
    Result<storage::VersionedValue> value =
        ctx_->mutable_store().GetAsOf(key, batch_id);
    if (value.ok()) {
      read.found = true;
      read.value = value->value;
      read.version = value->version;
    }
    Result<merkle::MerkleProof> proof = merkle::MerkleTree::ProveAt(snap, key);
    if (proof.ok()) read.proof = std::move(proof).value();
    entries.push_back(std::move(read));
  }
  return entries;
}

void WatchService::SendResubscribeRequired(sim::ActorId client,
                                           uint64_t watch_id) {
  wire::WatchResubscribeRequired err;
  err.watch_id = watch_id;
  err.partition = ctx_->partition();
  err.epoch = epoch_;
  err.horizon = ReplayFloor();
  ++stats_.watch_resubscribe_errors;
  sim::Time done = ctx_->Charge(ctx_->config().cost.message_handling);
  ctx_->Send(client, ShareMsg(std::move(err)), done);
}

void WatchService::HandleSubscribe(sim::ActorId from,
                                   const wire::WatchSubscribeRequest& msg) {
  sim::ActorId client = msg.reply_to != 0 ? msg.reply_to : from;
  // One watch per (client, range): a resubscribe replaces its
  // predecessor instead of doubling the stream.
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->client == client && it->lo == msg.range_lo &&
        it->hi == msg.range_hi) {
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }

  const BatchId head = ctx_->last_applied();
  if (head == kNoBatch) {
    // No applied certified state to seed from or chain to yet.
    SendResubscribeRequired(client, msg.watch_id);
    return;
  }

  if (msg.resume_from != kNoBatch) {
    if (msg.resume_from < ReplayFloor() || msg.resume_from > head) {
      // The replay window rotated past the resume point (TruncateHistory)
      // or the claim is ahead of this replica: an honest continuation is
      // impossible, so demand an explicit fresh subscribe rather than
      // seeding a stream with a silent gap.
      SendResubscribeRequired(client, msg.watch_id);
      return;
    }
    Watch watch;
    watch.watch_id = msg.watch_id;
    watch.client = client;
    watch.lo = msg.range_lo;
    watch.hi = msg.range_hi;
    watch.last_sent = msg.resume_from;

    wire::WatchSubscribeReply reply;
    reply.watch_id = msg.watch_id;
    reply.partition = ctx_->partition();
    reply.epoch = epoch_;
    reply.batch_id = msg.resume_from;
    reply.resumed = true;
    ++stats_.watch_resumes;
    sim::Time done = ctx_->Charge(ctx_->config().cost.message_handling);
    ctx_->Send(client, ShareMsg(std::move(reply)), done);

    // Replay the missed in-range deltas from the retained window; each
    // chains on the previous one exactly as a live push would have.
    for (const auto& [id, keys] : recent_writes_) {
      if (id <= msg.resume_from) continue;
      std::vector<Key> matched;
      for (const Key& k : keys) {
        if (InRange(watch, k)) matched.push_back(k);
      }
      if (matched.empty()) continue;
      ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                   static_cast<sim::Time>(matched.size()));
      Result<const storage::LogEntry*> logged = ctx_->mutable_log().Get(id);
      if (!logged.ok()) continue;  // Outside the retained log.
      PushDelta(watch, id, BuildEntries(id, matched),
                logged.value()->certificate);
    }
    watches_.push_back(std::move(watch));
    return;
  }

  // Fresh subscribe: seed every in-range key's certified (value, proof)
  // at the applied head.
  Result<const storage::LogEntry*> entry_or = ctx_->mutable_log().Get(head);
  if (!entry_or.ok()) {
    SendResubscribeRequired(client, msg.watch_id);
    return;
  }
  std::vector<Key> in_range;
  ctx_->mutable_store().ForEachLatest(
      [&](const Key& k, const Value& value, BatchId version) {
        (void)value;
        (void)version;
        if (k >= msg.range_lo && k <= msg.range_hi) in_range.push_back(k);
      });
  sim::Time done =
      ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                       static_cast<sim::Time>(in_range.size()) +
                   ctx_->config().cost.signature_op);
  wire::WatchSubscribeReply reply;
  reply.watch_id = msg.watch_id;
  reply.partition = ctx_->partition();
  reply.epoch = epoch_;
  reply.batch_id = head;
  reply.resumed = false;
  reply.entries = BuildEntries(head, in_range);
  reply.certificate = entry_or.value()->certificate;
  ++stats_.watch_subscribes;

  Watch watch;
  watch.watch_id = msg.watch_id;
  watch.client = client;
  watch.lo = msg.range_lo;
  watch.hi = msg.range_hi;
  watch.last_sent = head;
  watches_.push_back(std::move(watch));
  ctx_->Send(client, ShareMsg(std::move(reply)), done);
}

void WatchService::HandleUnsubscribe(sim::ActorId from,
                                     const wire::WatchUnsubscribe& msg) {
  sim::ActorId client = msg.reply_to != 0 ? msg.reply_to : from;
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->client == client && it->watch_id == msg.watch_id) {
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }
}

void WatchService::PushDelta(
    Watch& watch, BatchId batch_id,
    const std::vector<wire::AuthenticatedRead>& entries,
    const storage::BatchCertificate& certificate) {
  wire::WatchDeltaMsg delta;
  delta.watch_id = watch.watch_id;
  delta.partition = ctx_->partition();
  delta.epoch = epoch_;
  delta.batch_id = batch_id;
  delta.prev_batch_id = watch.last_sent;
  delta.entries = entries;
  delta.certificate = certificate;
  watch.last_sent = batch_id;
  ++stats_.watch_deltas_pushed;
  stats_.watch_keys_pushed += entries.size();
  // Per-receiver cost is serialization only — the proofs were built
  // (and charged) once per range, not once per watcher.
  sim::Time done = ctx_->Charge(ctx_->config().cost.message_handling);
  ctx_->Send(watch.client, ShareMsg(std::move(delta)), done);
}

void WatchService::OnBatchApplied(const storage::LogEntry& logged,
                                  const std::vector<Key>& written) {
  const BatchId id = logged.batch.id;
  recent_writes_.emplace_back(id, written);
  while (recent_writes_.size() >
         static_cast<size_t>(ctx_->config().snapshot_history)) {
    recent_writes_.pop_front();
  }
  if (watches_.empty() || written.empty()) return;

  // Group watches by range so N watchers of one hot range pay one proof
  // construction, then N per-receiver sends — the fan-out economics the
  // tier exists for.
  std::map<std::pair<Key, Key>, std::vector<size_t>> by_range;
  for (size_t i = 0; i < watches_.size(); ++i) {
    by_range[{watches_[i].lo, watches_[i].hi}].push_back(i);
  }
  for (const auto& [range, members] : by_range) {
    std::vector<Key> matched;
    for (const Key& k : written) {
      if (k >= range.first && k <= range.second) matched.push_back(k);
    }
    if (matched.empty()) continue;
    ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                 static_cast<sim::Time>(matched.size()));
    const std::vector<wire::AuthenticatedRead> entries =
        BuildEntries(id, matched);
    for (size_t i : members) {
      PushDelta(watches_[i], id, entries, logged.certificate);
    }
  }
}

void WatchService::OnViewChange() {
  // Watches are leader-local: whatever this replica was streaming (as
  // leader, or believed-leader) dies with the old view. The epoch bump
  // invalidates in-flight deltas at the watcher; the explicit error
  // makes the death loud instead of silently stale.
  ++epoch_;
  if (watches_.empty()) return;
  for (const Watch& watch : watches_) {
    SendResubscribeRequired(watch.client, watch.watch_id);
  }
  watches_.clear();
}

}  // namespace transedge::core
