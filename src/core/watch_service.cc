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

void WatchService::SendResubscribeRequired(sim::ActorId client,
                                           uint64_t watch_id) {
  wire::WatchResubscribeRequired err;
  err.watch_id = watch_id;
  err.partition = ctx_->partition();
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
      Result<const storage::LogEntry*> logged = ctx_->log().Get(id);
      if (!logged.ok()) continue;  // Outside the retained log.
      PushDelta(watch, id,
                BuildBody(id, matched, logged.value()->certificate));
    }
    watches_.push_back(std::move(watch));
    return;
  }

  // Fresh subscribe: seed every in-range key's certified (value, proof)
  // at the applied head.
  Result<const storage::LogEntry*> entry_or = ctx_->log().Get(head);
  if (!entry_or.ok()) {
    SendResubscribeRequired(client, msg.watch_id);
    return;
  }
  const storage::VersionedStore& store = ctx_->store();
  std::vector<Key> in_range;
  store.ForEachLatest(
      [&](const Key& k, const Value&, BatchId version) {
        // The store runs ahead of the applied head while apply lags: a
        // key first written after `head` is not part of its state.
        if (version <= head || store.GetAsOf(k, head).ok()) {
          in_range.push_back(k);
        }
      },
      [&](const Key& k) { return k >= msg.range_lo && k <= msg.range_hi; });
  sim::Time done =
      ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                       static_cast<sim::Time>(in_range.size()) +
                   ctx_->config().cost.signature_op);
  wire::WatchSubscribeReply reply;
  reply.watch_id = msg.watch_id;
  reply.partition = ctx_->partition();
  reply.batch_id = head;
  reply.resumed = false;
  reply.entries = ctx_->CertifiedReads(head, in_range);
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

std::shared_ptr<const wire::WatchDeltaBody> WatchService::BuildBody(
    BatchId batch_id, const std::vector<Key>& keys,
    const storage::BatchCertificate& certificate) const {
  auto body = std::make_shared<wire::WatchDeltaBody>();
  body->entries = ctx_->CertifiedReads(batch_id, keys);
  body->certificate = certificate;
  return body;
}

void WatchService::PushDelta(
    Watch& watch, BatchId batch_id,
    std::shared_ptr<const wire::WatchDeltaBody> body) {
  wire::WatchDeltaMsg delta;
  delta.watch_id = watch.watch_id;
  delta.partition = ctx_->partition();
  delta.batch_id = batch_id;
  delta.prev_batch_id = watch.last_sent;
  delta.body = std::move(body);
  watch.last_sent = batch_id;
  ++stats_.watch_deltas_pushed;
  stats_.watch_keys_pushed += delta.body->entries.size();
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

  // Group watches by range so N watchers of one hot range share one
  // proof construction and one body, then get N per-receiver headers —
  // the fan-out economics the tier exists for.
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
    const std::shared_ptr<const wire::WatchDeltaBody> body =
        BuildBody(id, matched, logged.certificate);
    for (size_t i : members) PushDelta(watches_[i], id, body);
  }
}

}  // namespace transedge::core
