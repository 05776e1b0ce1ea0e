#include "core/client.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace transedge::core {

namespace {
/// True when `reply` comes from partition `asked` and answers exactly
/// `keys`, the request's keys, in request order.
bool AnswersExactly(const wire::RoReply& reply, PartitionId asked,
                    const std::vector<Key>& keys) {
  return reply.partition == asked &&
         std::equal(reply.entries.begin(), reply.entries.end(), keys.begin(),
                    keys.end(), [](const wire::AuthenticatedRead& read,
                                   const Key& key) { return read.key == key; });
}

/// The value of every key a read-only op's verified `replies` answer.
template <typename Reply>
std::map<Key, std::optional<Value>> ValuesOf(
    const std::map<PartitionId, Reply>& replies) {
  std::map<Key, std::optional<Value>> values;
  for (const auto& [partition, reply] : replies) {
    for (const wire::AuthenticatedRead& read : reply.entries) {
      values[read.key] =
          read.found ? std::optional<Value>(read.value) : std::nullopt;
    }
  }
  return values;
}
}  // namespace

Client::Client(const SystemConfig& config, crypto::NodeId id,
               sim::Environment* env, const crypto::Verifier* verifier)
    : config_(config),
      id_(id),
      env_(env),
      verifier_(verifier),
      partition_map_(config.num_partitions),
      view_hint_(config.num_partitions, 0),
      // Request ids are globally unique (client id in the high bits):
      // nodes key per-request state (Augustus locks, parked reads) by
      // them, so two clients must never collide.
      next_request_id_((static_cast<uint64_t>(id) << 32) | 1) {}

void Client::OnMessage(sim::ActorId from, const sim::MessagePtr& msg) {
  (void)from;
  using wire::MessageType;
  switch (static_cast<MessageType>(msg->type())) {
    case MessageType::kClientReadReply:
      HandleClientReadReply(static_cast<const wire::ClientReadReply&>(*msg));
      break;
    case MessageType::kCommitReply:
      HandleCommitReply(static_cast<const wire::CommitReply&>(*msg));
      break;
    case MessageType::kRoReply:
      HandleRoReply(static_cast<const wire::RoReply&>(*msg));
      break;
    case MessageType::kAugustusRoReply:
      HandleAugustusRoReply(static_cast<const wire::AugustusRoReply&>(*msg));
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Read-write transactions
// ---------------------------------------------------------------------------

void Client::ExecuteReadWrite(std::vector<Key> read_keys,
                              std::vector<WriteOp> writes, RwCallback done) {
  const TxnId txn_id = MakeTxnId(id_, next_txn_seq_++);
  RwOp& op = rw_ops_[txn_id];
  op.read_keys = std::move(read_keys);
  op.writes = std::move(writes);
  op.done = std::move(done);
  op.start = env_->now();
  AttemptRw(txn_id, op);
}

void Client::ExecuteReadOnlyAsRegular(std::vector<Key> keys, RwCallback done) {
  // The 2PC/BFT baseline (§3.5): the same reads, committed as a regular
  // transaction with an empty write set through BFT consensus + 2PC.
  ExecuteReadWrite(std::move(keys), {}, std::move(done));
}

void Client::AttemptRw(TxnId txn_id, RwOp& op) {
  if (op.read_keys.empty()) SendCommit(txn_id, op);
  for (const Key& key : op.read_keys) {
    uint64_t req = next_request_id_++;
    read_phase_requests_[req] = txn_id;
    op.unanswered_reads.push_back(req);
    wire::ClientReadRequest msg;
    msg.request_id = req;
    msg.reply_to = id_;
    msg.key = key;
    env_->network().Send(id_, LeaderOf(partition_map_.OwnerOf(key)),
                         ShareMsg(std::move(msg)));
  }
  ArmRwTimeout(txn_id, op);
}

void Client::HandleClientReadReply(const wire::ClientReadReply& msg) {
  auto req_it = read_phase_requests_.find(msg.request_id);
  if (req_it == read_phase_requests_.end()) return;
  const TxnId txn_id = req_it->second;
  read_phase_requests_.erase(req_it);
  // An unanswered request belongs to a live op: finishing or retrying the
  // op drops its requests.
  RwOp& op = rw_ops_.at(txn_id);
  std::erase(op.unanswered_reads, msg.request_id);
  op.reads[msg.key] = {msg.found ? std::optional<Value>(msg.value)
                                 : std::nullopt,
                       msg.version};
  if (op.unanswered_reads.empty()) SendCommit(txn_id, op);
}

void Client::SendCommit(TxnId txn_id, RwOp& op) {
  op.commit_sent = true;
  Transaction txn;
  txn.id = txn_id;
  for (const Key& key : op.read_keys) {
    auto it = op.reads.find(key);
    BatchId version = it != op.reads.end() ? it->second.second : kNoBatch;
    txn.read_set.push_back(ReadOp{key, version});
  }
  txn.write_set = op.writes;
  txn.participants =
      partition_map_.ParticipantsOf(txn.read_set, txn.write_set);
  // The client picks one accessed cluster as coordinator (§3.3.1);
  // spread the choice deterministically across participants.
  txn.coordinator = txn.participants[txn_id % txn.participants.size()];

  auto msg = std::make_shared<const wire::CommitRequest>([&] {
    wire::CommitRequest m;
    m.reply_to = id_;
    m.txn = txn;
    return m;
  }());
  if (op.retries_left < 3) {
    // Retry path: the leader may be faulty. Send to every replica of the
    // coordinator cluster (§3.3.1's f+1 fan-out, widened so that 2f+1
    // honest replicas arm progress timers); followers forward to their
    // leader and the leader deduplicates.
    for (crypto::NodeId member : config_.ClusterMembers(txn.coordinator)) {
      env_->network().Send(id_, member, msg);
    }
  } else {
    env_->network().Send(id_, LeaderOf(txn.coordinator), msg);
  }
}

void Client::HandleCommitReply(const wire::CommitReply& msg) {
  auto op_it = rw_ops_.find(msg.txn_id);
  if (op_it == rw_ops_.end()) return;
  RwOp& op = op_it->second;

  if (!msg.committed && msg.retryable) {
    // A view change abandoned the admission; the transaction was never
    // decided, so re-issue it against the new leader instead of
    // surfacing an abort. A reply can only answer a sent commit: if this
    // attempt has not sent one yet (a timeout already re-issued and the
    // old leader's abort arrived late), the abort belongs to a
    // superseded attempt — drop it and let the live attempt proceed.
    // With retries exhausted the abort may still be stale (a delayed
    // reply to an earlier attempt while the live one is deciding), and a
    // retryable abort never carries a final decision — never surface it
    // as one. The live attempt's own reply or the timeout resolves the
    // op.
    if (op.commit_sent) RetryRw(msg.txn_id);
    return;
  }

  RwResult result;
  result.txn_id = msg.txn_id;
  result.committed = msg.committed;
  result.reason = msg.reason;
  result.latency = env_->now() - op.start;
  for (const auto& [key, read] : op.reads) result.reads[key] = read.first;
  FinishRw(msg.txn_id, std::move(result));
}

void Client::DropReadRequests(RwOp& op) {
  for (uint64_t req : op.unanswered_reads) read_phase_requests_.erase(req);
  op.unanswered_reads.clear();
}

void Client::FinishRw(TxnId txn_id, RwResult result) {
  auto op_it = rw_ops_.find(txn_id);
  if (op_it == rw_ops_.end()) return;
  RwOp op = std::move(op_it->second);
  rw_ops_.erase(op_it);
  DropReadRequests(op);
  if (result.committed) {
    ++stats_.rw_committed;
  } else {
    ++stats_.rw_aborted;
  }
  if (op.done) op.done(std::move(result));
}

bool Client::RetryRw(TxnId txn_id) {
  RwOp& op = rw_ops_.at(txn_id);
  if (op.retries_left-- <= 0) return false;
  // Rotate the leader hint for every touched partition and retry. The
  // hints of partitions the transaction does not touch stay put: their
  // leaders did nothing to suspect.
  std::vector<bool> touched(view_hint_.size(), false);
  for (const Key& key : op.read_keys) {
    touched[partition_map_.OwnerOf(key)] = true;
  }
  for (const WriteOp& write : op.writes) {
    touched[partition_map_.OwnerOf(write.key)] = true;
  }
  for (PartitionId p = 0; p < view_hint_.size(); ++p) {
    if (touched[p]) ++view_hint_[p];
  }
  // Re-issue with the same transaction id (the new leader has not seen
  // it; dedup protects against the old one).
  DropReadRequests(op);
  op.reads.clear();
  op.commit_sent = false;
  AttemptRw(txn_id, op);
  return true;
}

void Client::ArmRwTimeout(TxnId txn_id, RwOp& op) {
  uint64_t epoch = ++op.epoch;
  env_->Schedule(config_.client_timeout, [this, txn_id, epoch] {
    auto it = rw_ops_.find(txn_id);
    if (it == rw_ops_.end() || it->second.epoch != epoch) return;
    if (RetryRw(txn_id)) return;
    ++stats_.timeouts;
    RwResult result;
    result.txn_id = txn_id;
    result.committed = false;
    result.reason = "client timeout";
    result.latency = env_->now() - it->second.start;
    FinishRw(txn_id, std::move(result));
  });
}

// ---------------------------------------------------------------------------
// Read-only transactions (TransEdge protocol)
// ---------------------------------------------------------------------------

void Client::ExecuteReadOnly(std::vector<Key> keys, RoCallback done) {
  StartRo(std::move(keys), std::move(done), /*augustus=*/false);
}

void Client::StartRo(std::vector<Key> keys, RoCallback done, bool augustus) {
  uint64_t op_id = next_request_id_++;
  RoOp& op = ro_ops_[op_id];
  op.done = std::move(done);
  op.start = env_->now();
  for (const Key& key : keys) {
    op.by_partition[partition_map_.OwnerOf(key)].push_back(key);
  }
  op.outstanding = op.by_partition.size();
  for (const auto& [partition, part_keys] : op.by_partition) {
    if (!augustus) {
      SendRoRequest(op_id, op, RoAsk{partition, std::nullopt});
      continue;
    }
    uint64_t req = next_request_id_++;
    ro_requests_[req] = op_id;
    op.augustus_request_ids[partition] = req;
    wire::AugustusRoRequest msg;
    msg.request_id = req;
    msg.reply_to = id_;
    msg.keys = part_keys;
    env_->network().Send(id_, LeaderOf(partition), ShareMsg(std::move(msg)));
  }
  ArmRoTimeout(op_id);
}

void Client::SendRoRequest(uint64_t op_id, RoOp& op, const RoAsk& ask) {
  uint64_t req = next_request_id_++;
  ro_requests_[req] = op_id;
  op.asked[req] = ask;
  sim::MessagePtr msg;
  if (ask.min_lce.has_value()) {
    wire::RoBatchRequest batch_request;
    batch_request.request_id = req;
    batch_request.reply_to = id_;
    batch_request.keys = op.by_partition[ask.partition];
    batch_request.min_lce = *ask.min_lce;
    msg = ShareMsg(std::move(batch_request));
  } else {
    wire::RoRequest request;
    request.request_id = req;
    request.reply_to = id_;
    request.keys = op.by_partition[ask.partition];
    msg = ShareMsg(std::move(request));
  }
  env_->network().Send(id_, LeaderOf(ask.partition), std::move(msg));
}

Status Client::VerifyRoReply(const wire::RoReply& reply) {
  // 1. Certificate: f+1 distinct replica signatures over
  //    (partition, batch, digest, root, ro-segment digest).
  if (reply.certificate.partition != reply.partition ||
      reply.certificate.batch_id != reply.batch_id) {
    return Status::VerificationFailed("certificate does not match reply");
  }
  TE_RETURN_IF_ERROR(reply.certificate.Verify(
      *verifier_, config_.certificate_size(),
      config_.ClusterMembers(reply.partition)));

  // 2. Read-only segment authenticity: CD vector, LCE, and timestamp
  //    must hash to the digest covered by the certificate.
  storage::ReadOnlySegment segment;
  segment.cd_vector = reply.cd_vector;
  segment.lce = reply.lce;
  segment.merkle_root = reply.certificate.merkle_root;
  segment.timestamp_us = reply.timestamp_us;
  if (segment.ComputeDigest() != reply.certificate.ro_digest) {
    return Status::VerificationFailed("read-only segment tampered");
  }

  // 3. Every value against the Merkle root (§4.2).
  return wire::VerifyReads(reply.entries, reply.certificate.merkle_root);
}

std::map<PartitionId, BatchId> Client::VerifyDependencies(
    const std::map<PartitionId, wire::RoReply>& replies) const {
  // Algorithm 2: for every pair of accessed partitions (i, j), the
  // dependency V_i[j] must be covered by partition j's LCE.
  std::map<PartitionId, txn::RoPartitionView> views;
  for (const auto& [partition, reply] : replies) {
    views[partition] = txn::RoPartitionView{reply.cd_vector, reply.lce};
  }
  return txn::ComputeUnsatisfiedDependencies(views);
}

void Client::HandleRoReply(const wire::RoReply& msg) {
  auto req_it = ro_requests_.find(msg.request_id);
  if (req_it == ro_requests_.end()) return;
  const uint64_t op_id = req_it->second;
  // An unanswered request belongs to a live op: finishing the op drops
  // its requests.
  RoOp& op = ro_ops_.at(op_id);
  auto asked_it = op.asked.find(msg.request_id);
  if (asked_it == op.asked.end()) return;  // Not a TransEdge request.
  ro_requests_.erase(req_it);
  const RoAsk ask = asked_it->second;
  const PartitionId asked = ask.partition;
  op.asked.erase(asked_it);

  if (msg.batch_id == kNoBatch) {
    // Partition has no certified batch yet; ask again shortly, in the
    // same round.
    env_->Schedule(sim::Millis(5), [this, op_id, ask] {
      auto it = ro_ops_.find(op_id);
      if (it != ro_ops_.end()) SendRoRequest(op_id, it->second, ask);
    });
    return;
  }

  Status verified = VerifyRoReply(msg);
  if (verified.ok() && !AnswersExactly(msg, asked, op.by_partition[asked])) {
    // A certified reply that drops, adds or reorders keys would otherwise
    // finish the read with values silently missing.
    verified =
        Status::VerificationFailed("reply does not answer the requested keys");
  }
  if (!verified.ok()) {
    ++stats_.ro_verification_failures;
    RoResult result;
    result.status = verified;
    result.latency = env_->now() - op.start;
    result.rounds = op.rounds;
    FinishRo(op_id, std::move(result));
    return;
  }

  int64_t age = env_->now() - msg.timestamp_us;
  if (age > config_.freshness_window || age < -config_.freshness_window) {
    op.fresh = false;
  }

  op.replies[msg.partition] = msg;
  if (--op.outstanding > 0) return;

  if (op.rounds == 1) op.round1_done = env_->now();
  std::map<PartitionId, BatchId> needed;
  if (verify_dependencies_) needed = VerifyDependencies(op.replies);
  if (!needed.empty()) {
    // The paper's protocol runs exactly one corrective round (Theorem
    // 4.6); strict mode keeps iterating until the check passes — see
    // SystemConfig::strict_ro_rounds for why the corner exists.
    bool may_continue =
        op.rounds < 2 ||
        (config_.strict_ro_rounds && op.rounds < kMaxStrictRoRounds);
    if (may_continue) {
      StartRoRound2(op_id, needed);
      return;
    }
  }

  // Assemble the final snapshot.
  RoResult result;
  result.status = Status::OK();
  result.rounds = op.rounds;
  result.latency = env_->now() - op.start;
  result.round1_latency =
      (op.round1_done != 0 ? op.round1_done : env_->now()) - op.start;
  result.fresh = op.fresh;
  result.values = ValuesOf(op.replies);
  if (!needed.empty()) {
    // Residual unsatisfied dependency after the paper's two rounds — the
    // diagnostic Theorem 4.6 claims is impossible (see
    // SystemConfig::strict_ro_rounds).
    result.needed_third_round = true;
    ++stats_.ro_third_round_would_be_needed;
  }
  FinishRo(op_id, std::move(result));
}

void Client::StartRoRound2(uint64_t op_id,
                           const std::map<PartitionId, BatchId>& needed) {
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  RoOp& op = op_it->second;
  ++op.rounds;
  for (const auto& [partition, min_lce] : needed) {
    ++op.outstanding;
    SendRoRequest(op_id, op, RoAsk{partition, min_lce});
  }
}

void Client::FinishRo(uint64_t op_id, RoResult result) {
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  RoOp op = std::move(op_it->second);
  ro_ops_.erase(op_it);
  for (const auto& [req, ask] : op.asked) ro_requests_.erase(req);
  // An Augustus read holds shared locks wherever it asked until it
  // finishes, whatever the outcome: release every request it sent.
  for (const auto& [partition, req] : op.augustus_request_ids) {
    ro_requests_.erase(req);
    wire::AugustusRelease release;
    release.request_id = req;
    env_->network().Send(id_, LeaderOf(partition),
                         ShareMsg(std::move(release)));
  }
  if (result.status.ok()) {
    ++stats_.ro_completed;
    if (result.rounds > 1) ++stats_.ro_two_round;
  }
  if (op.done) op.done(std::move(result));
}

void Client::ArmRoTimeout(uint64_t op_id) {
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  uint64_t epoch = ++op_it->second.epoch;
  env_->Schedule(config_.client_timeout, [this, op_id, epoch] {
    auto it = ro_ops_.find(op_id);
    if (it == ro_ops_.end() || it->second.epoch != epoch) return;
    if (RetryRo(op_id)) return;
    ++stats_.timeouts;
    RoResult result;
    result.status = Status::Timeout("read-only transaction timed out");
    result.latency = env_->now() - it->second.start;
    result.rounds = it->second.rounds;
    FinishRo(op_id, std::move(result));
  });
}

bool Client::RetryRo(uint64_t op_id) {
  RoOp& op = ro_ops_.at(op_id);
  if (!op.augustus_request_ids.empty() || op.retries_left-- <= 0) {
    return false;
  }
  // Each partition has at most one unanswered request. Its leader is
  // suspect: rotate its hint and ask again, in the same round. The hints
  // of partitions that answered stay put.
  std::map<uint64_t, RoAsk> unanswered = std::exchange(op.asked, {});
  for (const auto& [req, ask] : unanswered) {
    ro_requests_.erase(req);
    ++view_hint_[ask.partition];
    SendRoRequest(op_id, op, ask);
  }
  ArmRoTimeout(op_id);
  return true;
}

// ---------------------------------------------------------------------------
// Augustus baseline
// ---------------------------------------------------------------------------

void Client::ExecuteAugustusReadOnly(std::vector<Key> keys, RoCallback done) {
  StartRo(std::move(keys), std::move(done), /*augustus=*/true);
}

void Client::HandleAugustusRoReply(const wire::AugustusRoReply& msg) {
  auto req_it = ro_requests_.find(msg.request_id);
  if (req_it == ro_requests_.end()) return;
  const uint64_t op_id = req_it->second;
  ro_requests_.erase(req_it);
  RoOp& op = ro_ops_.at(op_id);
  op.augustus_replies[msg.partition] = msg;
  // Locks are held until the whole transaction finishes — that is what
  // makes Augustus read-only transactions interfere with writers.
  // FinishRo releases every partition's shared locks.
  if (--op.outstanding > 0) return;

  RoResult result;
  result.status = Status::OK();
  result.rounds = 1;
  result.latency = env_->now() - op.start;
  result.round1_latency = result.latency;
  result.values = ValuesOf(op.augustus_replies);
  FinishRo(op_id, std::move(result));
}

}  // namespace transedge::core
