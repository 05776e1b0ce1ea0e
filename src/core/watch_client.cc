#include "core/watch_client.h"

#include <utility>

namespace transedge::core {

WatchClient::WatchClient(const SystemConfig& config, crypto::NodeId id,
                         sim::Environment* env,
                         const crypto::Verifier* verifier)
    : config_(config),
      id_(id),
      env_(env),
      verifier_(verifier),
      partition_map_(config.num_partitions),
      view_hint_(config.num_partitions, 0),
      subs_(config.num_partitions),
      // Watch ids share the clients' globally-unique id scheme (client
      // id in the high bits): the server keys watches by (client, id).
      next_watch_id_((static_cast<uint64_t>(id) << 32) | 1) {}

void WatchClient::OnMessage(sim::ActorId from, const sim::MessagePtr& msg) {
  using wire::MessageType;
  switch (static_cast<MessageType>(msg->type())) {
    case MessageType::kWatchDelta:
      HandleDelta(from, static_cast<const wire::WatchDeltaMsg&>(*msg));
      break;
    case MessageType::kWatchResubscribe:
      HandleResubscribeRequired(
          static_cast<const wire::WatchResubscribeRequired&>(*msg));
      break;
    default:
      break;
  }
}

void WatchClient::Watch(Key lo, Key hi) {
  watching_ = true;
  lo_ = std::move(lo);
  hi_ = std::move(hi);
  for (PartitionId p = 0; p < config_.num_partitions; ++p) {
    subs_[p] = Sub{};
    subs_[p].watch_id = next_watch_id_++;
    Subscribe(p, kNoBatch);
  }
}

void WatchClient::Unwatch() {
  if (!watching_) return;
  watching_ = false;
  for (PartitionId p = 0; p < config_.num_partitions; ++p) {
    Sub& sub = subs_[p];
    ++sub.timer_epoch;  // Kill the pending idle timer.
    sub.active = false;
    Unsubscribe(sub.server.value_or(LeaderOf(p)), sub.watch_id);
  }
}

void WatchClient::Unsubscribe(sim::ActorId replica, uint64_t watch_id) {
  wire::WatchUnsubscribe msg;
  msg.watch_id = watch_id;
  msg.reply_to = id_;
  env_->network().Send(id_, replica, ShareMsg(std::move(msg)));
}

bool WatchClient::AllSubscribed() const {
  if (!watching_) return false;
  for (const Sub& sub : subs_) {
    if (!sub.active) return false;
  }
  return true;
}

void WatchClient::Subscribe(PartitionId p, BatchId resume_from) {
  Sub& sub = subs_[p];
  sub.active = false;
  wire::WatchSubscribeRequest msg;
  msg.watch_id = sub.watch_id;
  msg.reply_to = id_;
  msg.range_lo = lo_;
  msg.range_hi = hi_;
  msg.resume_from = resume_from;
  env_->network().Send(id_, LeaderOf(p), ShareMsg(std::move(msg)));
  ArmIdleTimer(p);
}

Status WatchClient::VerifyCertifiedEntries(
    PartitionId partition, BatchId batch_id,
    const std::vector<wire::AuthenticatedRead>& entries,
    const storage::BatchCertificate& certificate) const {
  if (certificate.partition != partition || certificate.batch_id != batch_id) {
    return Status::VerificationFailed("certificate does not match payload");
  }
  // Any key has a valid proof in any partition's tree, if only of its
  // absence: an entry counts only for a watched key the sender owns. The
  // key digests that decide ownership also place each proof's leaf.
  std::vector<crypto::Digest> key_digests;
  key_digests.reserve(entries.size());
  for (const wire::AuthenticatedRead& read : entries) {
    bool counts = read.key >= lo_ && read.key <= hi_;
    if (counts) {
      key_digests.push_back(crypto::Sha256::Hash(read.key));
      counts = partition_map_.OwnerOf(key_digests.back()) == partition;
    }
    if (!counts) {
      return Status::VerificationFailed(
          "entry outside the watched range or the sender's partition");
    }
  }
  TE_RETURN_IF_ERROR(certificate.Verify(*verifier_,
                                        config_.certificate_size(),
                                        config_.ClusterMembers(partition)));
  return wire::VerifyReads(entries, certificate.merkle_root, &key_digests);
}

void WatchClient::ApplyEntries(
    BatchId batch_id, const std::vector<wire::AuthenticatedRead>& entries) {
  for (const wire::AuthenticatedRead& read : entries) {
    if (read.found) {
      // Updated in place: an existing entry's value buffer is reused.
      CachedRead& entry = cache_[read.key];
      entry.found = true;
      entry.value = read.value;
      entry.version = read.version;
      entry.batch_id = batch_id;
    } else {
      // Certified absence: the key has no value as of this batch.
      cache_.erase(read.key);
    }
  }
  stats_.keys_updated += entries.size();
}

void WatchClient::HandleDelta(sim::ActorId from,
                              const wire::WatchDeltaMsg& msg) {
  if (msg.partition >= subs_.size()) return;
  Sub& sub = subs_[msg.partition];
  if (!watching_ || msg.watch_id != sub.watch_id) {
    // A push for a watch this client no longer wants: stop its sender.
    Unsubscribe(from, msg.watch_id);
    return;
  }
  const wire::WatchDeltaBody& body = *msg.body;
  // The next link chains on the last verified batch. The answer to a
  // resume with nothing new may repeat that batch, with no entries.
  const bool next =
      msg.prev_batch_id == sub.last_seen &&
      (msg.batch_id > sub.last_seen ||
       (msg.batch_id == sub.last_seen && body.entries.empty()));
  // While a subscribe is in flight, the next link is its answer, from
  // whichever replica the subscribe reached.
  if (from != sub.server && !(next && !sub.active)) {
    // Not the serving replica. Once the stream is live, the sender is a
    // replica the stream has left: stop it. While a subscribe is in
    // flight, the sender may be the replica it reached, pushing before
    // its answer lands: only drop the push.
    ++stats_.stale_stream_dropped;
    if (sub.active) Unsubscribe(from, msg.watch_id);
    return;
  }
  if (!next) {
    if (msg.batch_id <= sub.last_seen) {
      ++stats_.duplicates_dropped;
      return;
    }
    // Chain discontinuity: a delta between last_seen and this one was
    // lost. Do not apply (the cache would silently skip writes); resume
    // from the last verified position instead.
    ++stats_.gaps_detected;
    ++stats_.resubscribes;
    Subscribe(msg.partition, sub.last_seen);
    return;
  }
  Status verified = VerifyCertifiedEntries(msg.partition, msg.batch_id,
                                           body.entries, body.certificate);
  if (!verified.ok()) {
    ++stats_.verification_failures;
    return;
  }
  if (msg.prev_batch_id == kNoBatch) {
    // A seed: certified ground truth for the whole range replaces any
    // leftovers from a previous range.
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (partition_map_.OwnerOf(it->first) == msg.partition) {
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
    ++stats_.seeds_applied;
  } else {
    ++stats_.deltas_applied;
  }
  ApplyEntries(msg.batch_id, body.entries);
  sub.server = from;
  sub.last_seen = msg.batch_id;
  sub.active = true;
  ArmIdleTimer(msg.partition);
}

void WatchClient::HandleResubscribeRequired(
    const wire::WatchResubscribeRequired& msg) {
  if (msg.partition >= subs_.size()) return;
  Sub& sub = subs_[msg.partition];
  if (!watching_ || msg.watch_id != sub.watch_id) return;
  ++stats_.resubscribes;
  // The sender just told us it cannot serve this subscribe; try the
  // next replica in rotation.
  ++view_hint_[msg.partition];
  Subscribe(msg.partition, sub.last_seen);
}

void WatchClient::ArmIdleTimer(PartitionId p) {
  Sub& sub = subs_[p];
  uint64_t epoch = ++sub.timer_epoch;
  env_->Schedule(config_.client_timeout, [this, p, epoch] {
    if (!watching_) return;
    Sub& sub = subs_[p];
    if (sub.timer_epoch != epoch) return;
    ++stats_.resubscribes;
    if (!sub.active) {
      // The previous subscribe itself went unanswered — that replica is
      // down or partitioned away; rotate before retrying.
      ++view_hint_[p];
    }
    Subscribe(p, sub.last_seen);
  });
}

}  // namespace transedge::core
