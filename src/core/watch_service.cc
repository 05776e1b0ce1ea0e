#include "core/watch_service.h"

#include <map>
#include <utility>

namespace transedge::core {

WatchService::WatchService(NodeContext* ctx) : ctx_(ctx) {}

void WatchService::SendResubscribeRequired(sim::ActorId client,
                                           uint64_t watch_id) {
  wire::WatchResubscribeRequired err;
  err.watch_id = watch_id;
  err.partition = ctx_->partition();
  ++stats_.watch_resubscribe_errors;
  sim::Time done = ctx_->Charge(ctx_->config().cost.message_handling);
  ctx_->Send(client, ShareMsg(std::move(err)), done);
}

void WatchService::HandleSubscribe(sim::ActorId from,
                                   const wire::WatchSubscribeRequest& msg) {
  Watch watch;
  watch.watch_id = msg.watch_id;
  watch.client = msg.reply_to != 0 ? msg.reply_to : from;
  watch.lo = msg.range_lo;
  watch.hi = msg.range_hi;
  watch.last_sent = msg.resume_from;
  // One watch per (client, range): a subscribe replaces its predecessor
  // instead of doubling the stream. The predecessor was sent every
  // in-range change up to the applied head, so if it was current through
  // the named batch, nothing in range changed after that batch.
  bool scan = true;
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->client == watch.client && it->lo == watch.lo &&
        it->hi == watch.hi) {
      scan = it->last_sent > msg.resume_from;
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }

  const BatchId head = ctx_->last_applied();
  if (msg.resume_from > head) {
    // The watcher verified a batch this replica has not applied.
    SendResubscribeRequired(watch.client, watch.watch_id);
    return;
  }
  if (head == kNoBatch) {
    // No applied state to answer from: the first applied batch seeds the
    // watch (OnBatchApplied).
    watches_.push_back(std::move(watch));
    return;
  }
  Result<const storage::LogEntry*> logged = ctx_->log().Get(head);
  if (!logged.ok()) {
    // A recovered log that ends at its checkpoint: no certificate for the
    // head.
    SendResubscribeRequired(watch.client, watch.watch_id);
    return;
  }
  std::vector<Key> changed;
  if (scan) changed = ChangedSince(watch, head);
  Answer(watch, head,
         BuildBody(head, changed, logged.value()->certificate));
  watches_.push_back(std::move(watch));
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

std::vector<Key> WatchService::ChangedSince(const Watch& watch,
                                            BatchId head) const {
  const storage::VersionedStore& store = ctx_->store();
  std::vector<Key> changed;
  store.ForEachLatest(
      [&](const Key& k, const Value&, BatchId version) {
        // The store runs ahead of the applied head while apply lags: what
        // counts is the key's version as of `head` (none for a key first
        // written after it).
        if (version > head) {
          Result<storage::VersionedValue> at = store.GetAsOf(k, head);
          version = at.ok() ? at->version : kNoBatch;
        }
        if (version > watch.last_sent) changed.push_back(k);
      },
      [&](const Key& k) { return InRange(watch, k); });
  return changed;
}

void WatchService::Answer(Watch& watch, BatchId batch_id,
                          std::shared_ptr<const wire::WatchDeltaBody> body) {
  if (watch.last_sent == kNoBatch) {
    ++stats_.watch_subscribes;
  } else {
    ++stats_.watch_resumes;
  }
  ctx_->Charge(ctx_->config().cost.ro_serve_per_key *
                   static_cast<sim::Time>(body->entries.size()) +
               ctx_->config().cost.signature_op);
  PushDelta(watch, batch_id, std::move(body));
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
  // Group watches by range so N watchers of one hot range share one
  // proof construction and one body, then get N per-receiver headers —
  // the fan-out economics the tier exists for. A watch registered before
  // the first applied batch is seeded by it instead, and so is already
  // current through it; the seeds of one range share one body too.
  std::map<std::pair<Key, Key>, std::vector<size_t>> by_range;
  std::map<std::pair<Key, Key>, std::shared_ptr<const wire::WatchDeltaBody>>
      seeds;
  for (size_t i = 0; i < watches_.size(); ++i) {
    Watch& watch = watches_[i];
    if (watch.last_sent == kNoBatch) {
      std::shared_ptr<const wire::WatchDeltaBody>& seed =
          seeds[{watch.lo, watch.hi}];
      if (seed == nullptr) {
        seed = BuildBody(id, ChangedSince(watch, id), logged.certificate);
      }
      Answer(watch, id, seed);
    } else if (!written.empty()) {
      by_range[{watch.lo, watch.hi}].push_back(i);
    }
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
