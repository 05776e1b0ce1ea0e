#include "core/node.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "core/augustus_baseline.h"
#include "core/batch_pipeline.h"
#include "core/consensus/consensus.h"
#include "core/read_only_service.h"
#include "core/two_pc_coordinator.h"
#include "core/watch_service.h"

namespace transedge::core {

namespace {

/// The backend needs the deployment geometry to re-derive write sets;
/// everything else in the tuning block is honored as configured.
storage::StorageTuning BackendTuningFor(const SystemConfig& config,
                                        PartitionId partition) {
  storage::StorageTuning tuning = config.durability;
  tuning.num_partitions = config.num_partitions;
  tuning.partition = partition;
  return tuning;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction: wire the engines together through hooks.
// ---------------------------------------------------------------------------

TransEdgeNode::TransEdgeNode(const SystemConfig& config, crypto::NodeId id,
                             sim::Environment* env,
                             std::unique_ptr<crypto::Signer> signer,
                             const crypto::Verifier* verifier,
                             storage::paged::SimDisk* disk)
    : config_(config),
      id_(id),
      partition_(config.PartitionOfNode(id)),
      env_(env),
      signer_(std::move(signer)),
      verifier_(verifier),
      partition_map_(config.num_partitions),
      cluster_members_(config.ClusterMembers(partition_)),
      backend_(storage::MakeStorageBackend(
          config.storage_kind, BackendTuningFor(config, partition_), disk)),
      tree_(config.merkle_depth),
      decided_tree_(config.merkle_depth) {
  // The private-base conversion must happen in this class's scope.
  NodeContext* ctx = this;

  Consensus::Hooks consensus_hooks;
  consensus_hooks.on_decided = [this](Consensus::Decided d) {
    OnDecided(std::move(d.batch), std::move(d.certificate),
              std::move(d.post_tree));
  };
  consensus_hooks.on_view_adopted = [this] {
    pipeline_->OnViewChange();
    two_pc_->OnViewChange();
    // Read-path services: flush parked round-2 requests retryable and
    // kill the watch streams of the old view (epoch bump + explicit
    // resubscribe errors) — nothing may strand silently across views.
    read_only_->OnViewChange();
    watch_->OnViewChange();
  };
  consensus_ = MakeConsensus(ctx, std::move(consensus_hooks));

  BatchPipeline::Hooks pipeline_hooks;
  pipeline_hooks.propose = [this](storage::Batch batch,
                                  merkle::MerkleTree post_tree) {
    consensus_->Propose(std::move(batch), std::move(post_tree));
  };
  pipeline_hooks.begin_coordination = [this](const Transaction& txn,
                                             sim::ActorId client) {
    two_pc_->BeginCoordination(txn, client);
  };
  pipeline_hooks.reattach_client = [this](TxnId txn_id, sim::ActorId client) {
    return two_pc_->ReattachClient(txn_id, client);
  };
  pipeline_hooks.ro_locks_block_writer = [this](const Transaction& txn) {
    return augustus_->BlocksWriter(txn);
  };
  pipeline_ = std::make_unique<BatchPipeline>(ctx, std::move(pipeline_hooks));

  TwoPcCoordinator::Hooks two_pc_hooks;
  two_pc_hooks.already_seen = [this](TxnId txn_id) {
    return pipeline_->AlreadySeen(txn_id);
  };
  two_pc_hooks.admit_prepared = [this](const Transaction& txn) {
    return pipeline_->AdmitPrepared(txn);
  };
  two_pc_hooks.maybe_propose = [this] { pipeline_->MaybeProposeOnSize(); };
  two_pc_hooks.in_flight = [this](TxnId txn_id) {
    return pipeline_->HasIndexed(txn_id);
  };
  two_pc_ =
      std::make_unique<TwoPcCoordinator>(ctx, std::move(two_pc_hooks));

  read_only_ = std::make_unique<ReadOnlyService>(ctx);
  augustus_ = std::make_unique<AugustusBaseline>(ctx);
  watch_ = std::make_unique<WatchService>(ctx);
}

TransEdgeNode::~TransEdgeNode() = default;

void TransEdgeNode::Preload(const storage::VersionedStore& store,
                            const merkle::MerkleTree& tree) {
  backend_->Preload(store, tree.RootDigest());
  tree_ = tree.Clone();
  decided_tree_ = tree.Clone();
}

Status TransEdgeNode::RecoverFromStorage(const storage::RecoverOptions& opts) {
  TE_ASSIGN_OR_RETURN(storage::RecoveredState recovered,
                      backend_->Recover(opts));

  // Rebuild the authenticated structure from the recovered store and
  // refuse to come up unless it hashes to a root some quorum certified:
  // the log tail's certificate, or the checkpoint's recorded root when
  // the WAL held nothing beyond it. Buckets keep keys sorted, so the
  // rebuilt tree is canonical and must hash-equal the incremental one.
  merkle::MerkleTree rebuilt(config_.merkle_depth);
  backend_->store().ForEachLatest(
      [&](const Key& key, const Value& value, BatchId version) {
        rebuilt.Put(key, value, version);
      });
  const storage::SmrLog& log = backend_->log();
  const crypto::Digest expected = log.empty()
                                      ? recovered.checkpoint_root
                                      : log.back().certificate.merkle_root;
  if (!(rebuilt.RootDigest() == expected)) {
    return Status::VerificationFailed(
        "recovered store does not hash to the certified Merkle root");
  }

  tree_ = std::move(rebuilt);
  decided_tree_ = tree_.Clone();
  last_applied_ = log.empty() ? recovered.checkpoint_applied
                              : log.LastBatchId();
  snapshots_.clear();
  if (last_applied_ == kNoBatch) {
    snapshot_base_ = 0;  // Fresh preloaded state: same as a new node.
  } else {
    snapshot_base_ = last_applied_;
    snapshots_.push_back(tree_.GetSnapshot());
  }
  // Recovery I/O occupies the replica CPU: the node is busy replaying
  // before it can process its first message.
  ChargeStorageIo(/*on_protocol_cpu=*/true);
  return Status::OK();
}

void TransEdgeNode::OnStart() { pipeline_->OnStart(); }

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t TransEdgeNode::view() const { return consensus_->view(); }

bool TransEdgeNode::IsLeader() const {
  return config_.LeaderOf(partition_, consensus_->view()) == id_;
}

bool TransEdgeNode::ReproposalPending() const {
  return consensus_->HasPendingReproposal();
}

size_t TransEdgeNode::in_progress_size() const {
  return pipeline_->in_progress_size();
}

size_t TransEdgeNode::seen_txn_count() const {
  return pipeline_->seen_txn_count();
}

const NodeStats& TransEdgeNode::stats() const {
  NodeStats& s = aggregated_stats_;
  const BatchPipeline::Stats& pipeline_stats = pipeline_->stats();
  s.local_committed = pipeline_stats.local_committed;
  s.local_aborted = pipeline_stats.local_aborted;
  s.dist_committed = two_pc_->stats().dist_committed;
  s.dist_aborted = pipeline_stats.dist_aborted + two_pc_->stats().dist_aborted;
  s.batches_decided = consensus_->stats().batches_decided;
  s.batches_applied = batches_applied_;
  s.ro_round1_served = read_only_->stats().ro_round1_served;
  s.ro_round2_served = read_only_->stats().ro_round2_served;
  s.ro_round2_parked = read_only_->stats().ro_round2_parked;
  s.ro_round2_rejected = read_only_->stats().ro_round2_rejected;
  s.rw_aborted_by_ro_locks = pipeline_stats.rw_aborted_by_ro_locks;
  s.ro_round2_aborted = read_only_->stats().ro_round2_aborted;
  s.view_changes = consensus_->stats().view_changes;
  s.augustus_ro_served = augustus_->stats().augustus_ro_served;
  s.consensus_msgs_sent = consensus_->stats().messages_sent;
  s.watch_subscribes = watch_->stats().watch_subscribes;
  s.watch_deltas_pushed = watch_->stats().watch_deltas_pushed;
  s.watch_keys_pushed = watch_->stats().watch_keys_pushed;
  s.watch_resubscribe_errors = watch_->stats().watch_resubscribe_errors;
  return s;
}

size_t TransEdgeNode::active_watches() const {
  return watch_->active_watches();
}

const merkle::MerkleTree::Snapshot& TransEdgeNode::SnapshotAt(
    BatchId batch_id) const {
  assert(batch_id >= snapshot_base_);
  return snapshots_[static_cast<size_t>(batch_id - snapshot_base_)];
}

size_t TransEdgeNode::ConsensusInFlight() const {
  return consensus_->InFlight();
}

uint32_t TransEdgeNode::EffectivePipelineDepth() const {
  uint32_t depth = config_.pipeline_depth == 0 ? 1 : config_.pipeline_depth;
  return std::min(depth, consensus_->MaxPipelineDepth());
}

ProposalChain TransEdgeNode::proposal_chain() {
  ProposalChain chain = consensus_->Chain();
  if (chain.head_tree == nullptr) {
    chain.next_id = backend_->log().LastBatchId() + 1;
    chain.head_tree = &decided_tree_;
  }
  return chain;
}

BatchId TransEdgeNode::LatestDecidedVersion(const Key& key) const {
  auto it = decided_versions_.find(key);
  if (it != decided_versions_.end()) return it->second;
  return backend_->store().LatestVersion(key);
}

// ---------------------------------------------------------------------------
// Network primitives
// ---------------------------------------------------------------------------

void TransEdgeNode::Send(crypto::NodeId to, const sim::MessagePtr& msg,
                         sim::Time at) {
  env_->network().SendAt(at, id_, to, msg);
}

void TransEdgeNode::BroadcastToCluster(const sim::MessagePtr& msg,
                                       sim::Time at) {
  for (crypto::NodeId member : cluster_members_) {
    if (member != id_) Send(member, msg, at);
  }
}

void TransEdgeNode::SendToCluster(PartitionId p, const sim::MessagePtr& msg,
                                  sim::Time at) {
  // f+1 receivers: at least one is honest and will get the message to the
  // cluster's leader (§3.3.1).
  for (uint32_t i = 0; i <= config_.f; ++i) {
    Send(config_.ReplicaNode(p, i), msg, at);
  }
}

// ---------------------------------------------------------------------------
// Message routing
// ---------------------------------------------------------------------------

void TransEdgeNode::OnMessage(sim::ActorId from, const sim::MessagePtr& msg) {
  if (halted_) return;
  if (byzantine_ == ByzantineBehavior::kCrash) return;
  Charge(config_.cost.message_handling);

  using wire::MessageType;
  auto type = static_cast<MessageType>(msg->type());

  // Leader-bound traffic arriving at a follower (stale view at the
  // sender) is forwarded to the follower's current leader.
  const bool leader_bound =
      type == MessageType::kCommitRequest ||
      type == MessageType::kCoordPrepare || type == MessageType::kPrepared ||
      type == MessageType::kCommitRecord || type == MessageType::kRoRequest ||
      type == MessageType::kRoBatchRequest ||
      type == MessageType::kAugustusRoRequest ||
      type == MessageType::kAugustusRelease ||
      type == MessageType::kWatchSubscribe ||
      type == MessageType::kWatchUnsubscribe;
  if (leader_bound && !IsLeader()) {
    Send(config_.LeaderOf(partition_, consensus_->view()), msg,
         cpu_.busy_until());
    // Expect the leader to make progress on the forwarded work; if the
    // log does not advance, demand a view change (PBFT-style liveness).
    consensus_->StartViewChangeTimer(backend_->log().LastBatchId() + 1);
    return;
  }

  switch (type) {
    case MessageType::kClientRead:
      read_only_->HandleClientRead(
          from, static_cast<const wire::ClientReadRequest&>(*msg));
      break;
    case MessageType::kCommitRequest:
      pipeline_->HandleCommitRequest(
          from, static_cast<const wire::CommitRequest&>(*msg));
      break;
    case MessageType::kRoRequest:
      read_only_->HandleRoRequest(from,
                                  static_cast<const wire::RoRequest&>(*msg));
      break;
    case MessageType::kRoBatchRequest:
      read_only_->HandleRoBatchRequest(
          from, static_cast<const wire::RoBatchRequest&>(*msg));
      break;
    case MessageType::kCoordPrepare:
      two_pc_->HandleCoordPrepare(
          from, static_cast<const wire::CoordPrepareMsg&>(*msg));
      break;
    case MessageType::kPrepared:
      two_pc_->HandlePrepared(from,
                              static_cast<const wire::PreparedMsg&>(*msg));
      break;
    case MessageType::kCommitRecord:
      two_pc_->HandleCommitRecord(
          from, static_cast<const wire::CommitRecordMsg&>(*msg));
      break;
    case MessageType::kAugustusRoRequest:
      augustus_->HandleRoRequest(
          from, static_cast<const wire::AugustusRoRequest&>(*msg));
      break;
    case MessageType::kAugustusVoteRequest:
      augustus_->HandleVoteRequest(
          from, static_cast<const wire::AugustusVoteRequest&>(*msg));
      break;
    case MessageType::kAugustusVoteReply:
      augustus_->HandleVoteReply(
          from, static_cast<const wire::AugustusVoteReply&>(*msg));
      break;
    case MessageType::kAugustusRelease:
      augustus_->HandleRelease(
          from, static_cast<const wire::AugustusRelease&>(*msg));
      break;
    case MessageType::kWatchSubscribe:
      watch_->HandleSubscribe(
          from, static_cast<const wire::WatchSubscribeRequest&>(*msg));
      break;
    case MessageType::kWatchUnsubscribe:
      watch_->HandleUnsubscribe(
          from, static_cast<const wire::WatchUnsubscribe&>(*msg));
      break;
    default:
      // The consensus engine's wire surface is private to the engine:
      // anything the node does not route itself is offered to it.
      // Unknown or client-side message types are ignored.
      consensus_->OnMessage(from, *msg);
      break;
  }
}

// ---------------------------------------------------------------------------
// Decided batches: decide-time metadata, then queued storage apply
// ---------------------------------------------------------------------------

void TransEdgeNode::OnDecided(storage::Batch batch,
                              storage::BatchCertificate certificate,
                              merkle::MerkleTree post_tree) {
  PendingApply entry;
  entry.id = batch.id;

  // Pop the committed prepare groups — by id, not position: the
  // certified commit order is authoritative, and popping positionally
  // would silently consume the wrong group if local queue order ever
  // diverged from it. The groups travel with the apply entry; their
  // pending-footprint share is released now, since admission and
  // validation key off the decided state.
  std::vector<BatchId> group_ids;
  for (const storage::CommitRecord& rec : batch.committed) {
    if (group_ids.empty() || group_ids.back() != rec.prepared_in_batch) {
      group_ids.push_back(rec.prepared_in_batch);
    }
  }
  std::vector<txn::PrepareGroup> groups;
  for (BatchId gid : group_ids) {
    Result<txn::PrepareGroup> popped = prepared_batches_.PopGroup(gid);
    assert(popped.ok());
    if (!popped.ok()) continue;
    txn::PrepareGroup group = std::move(popped).value();
    for (txn::PendingTxn& pending : group.txns) {
      pending_index_.Remove(pending.txn);
    }
    groups.push_back(std::move(group));
  }
  // Resolve the committed write set once: the popped transactions whose
  // (first) commit record commits them, in group order. Decide-time
  // bookkeeping, the apply cost and the store apply all walk this list.
  std::map<TxnId, bool> decisions;
  for (const storage::CommitRecord& rec : batch.committed) {
    decisions.emplace(rec.txn_id, rec.committed);
  }
  for (txn::PrepareGroup& group : groups) {
    for (txn::PendingTxn& pending : group.txns) {
      auto it = decisions.find(pending.txn.id);
      if (it != decisions.end() && it->second) {
        entry.committed.push_back(std::move(pending.txn));
      }
    }
  }

  // Register the new prepare group so the read-only segment of a later
  // batch can commit it (Definition 4.1).
  if (!batch.prepared.empty()) {
    std::vector<txn::PendingTxn> pendings;
    pendings.reserve(batch.prepared.size());
    for (const Transaction& t : batch.prepared) {
      txn::PendingTxn p;
      p.txn = t;
      pendings.push_back(std::move(p));
      pending_index_.Add(t);
    }
    prepared_batches_.AddGroup(batch.id, std::move(pendings));
  }

  // Advance the decided watermark: version overlay, decided tree, log.
  auto record_decided_write = [&](const Transaction& t) {
    for (const WriteOp& w : partition_map_.WritesFor(t, partition_)) {
      decided_versions_[w.key] = batch.id;
    }
  };
  for (const Transaction& t : batch.local) record_decided_write(t);
  for (const Transaction& t : entry.committed) record_decided_write(t);
  decided_tree_ = post_tree.Clone();
  entry.post_tree = std::move(post_tree);

  Status append =
      backend_->log().Append({std::move(batch), std::move(certificate)});
  assert(append.ok());
  (void)append;
  // Durability point: the WAL covers the decision before anything acts
  // on it. Its cost lands on the protocol CPU (group-commit fsync is the
  // decision critical path); zero under the in-memory backend.
  backend_->OnDecided();
  ChargeStorageIo(/*on_protocol_cpu=*/true);

  apply_queue_.push_back(std::move(entry));
  if (!config_.async_apply) {
    // Synchronous apply: drain inline on the replica's CPU, exactly the
    // pre-queue behavior (the queue never holds more than this entry).
    while (!apply_queue_.empty()) {
      PendingApply next = std::move(apply_queue_.front());
      apply_queue_.pop_front();
      Charge(ApplyCostFor(next));
      InstallApply(std::move(next));
    }
  } else {
    ScheduleApplyDrain();
  }

  consensus_->AdvanceConsensus();
  pipeline_->MaybeProposeOnSize();
}

sim::Time TransEdgeNode::ApplyCostFor(const PendingApply& entry) const {
  Result<const storage::LogEntry*> logged = backend_->log().Get(entry.id);
  assert(logged.ok());
  const storage::Batch& batch = logged.value()->batch;
  const size_t n = batch.TotalTransactions();
  const uint32_t shards = config_.apply_shards == 0 ? 1 : config_.apply_shards;
  if (shards <= 1) {
    return BatchComputeCost({n}, config_.cost.apply_per_txn);
  }
  // Carve the write ops over leaf-index subranges (each shard owns a
  // whole subtree of the authenticated structure) and pay for the
  // slowest shard plus the spine recombine.
  std::vector<size_t> loads(shards, 0);
  auto count = [&](const Transaction& t) {
    for (const WriteOp& w : partition_map_.WritesFor(t, partition_)) {
      uint32_t leaf =
          merkle::MerkleTree::LeafIndexFor(w.key, config_.merkle_depth);
      ++loads[merkle::MerkleTree::LeafShardOf(leaf, config_.merkle_depth,
                                              shards)];
    }
  };
  for (const Transaction& t : batch.local) count(t);
  for (const Transaction& t : entry.committed) count(t);
  return ShardedApplyCost(n, loads);
}

void TransEdgeNode::InstallApply(PendingApply entry) {
  Result<const storage::LogEntry*> logged_or = backend_->log().Get(entry.id);
  assert(logged_or.ok());
  const storage::LogEntry& logged = *logged_or.value();
  const storage::Batch& batch = logged.batch;

  std::vector<Key> written;
  auto apply_write = [&](const WriteOp& w) {
    backend_->store().Put(w.key, w.value, batch.id);
    written.push_back(w.key);
    // Drain the decided-version overlay once the store has caught up.
    auto it = decided_versions_.find(w.key);
    if (it != decided_versions_.end() && it->second == batch.id) {
      decided_versions_.erase(it);
    }
  };
  auto apply_txn = [&](const Transaction& t) {
    for (const WriteOp& w : partition_map_.WritesFor(t, partition_)) {
      apply_write(w);
    }
  };
  for (const Transaction& t : batch.local) apply_txn(t);
  for (const Transaction& t : entry.committed) apply_txn(t);

  tree_ = std::move(entry.post_tree);
  snapshots_.push_back(tree_.GetSnapshot());
  assert(snapshot_base_ + static_cast<BatchId>(snapshots_.size()) ==
         batch.id + 1);
  bool truncate_due = false;
  if (snapshots_.size() > config_.snapshot_history) {
    snapshots_.pop_front();
    ++snapshot_base_;
    // Bound history growth along with the snapshots (amortized: a full
    // sweep every 64 batches). The actual truncation is deferred past
    // the engine follow-ups below: truncating the log moves its base
    // and would invalidate `logged`.
    if (snapshot_base_ % 64 == 0) truncate_due = true;
  }

  last_applied_ = batch.id;
  ++batches_applied_;

  // Durable engines mark dirty buckets / checkpoint here; the cost goes
  // on the storage device's own meter, beside the protocol CPU.
  backend_->OnApplied(batch.id, logged.certificate.merkle_root);
  ChargeStorageIo(/*on_protocol_cpu=*/false);

  // Engine follow-ups, in the same order the monolithic replica used:
  // leader bookkeeping + local client replies, 2PC legs, parked
  // read-only work.
  pipeline_->OnBatchApplied(logged.batch);
  two_pc_->OnBatchApplied(logged.batch, logged.certificate);
  read_only_->ServeParkedRequests();
  // Canonical write-key order so every replica pushes identical deltas.
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());
  watch_->OnBatchApplied(logged, written);

  if (truncate_due) {
    // One authoritative horizon for every engine: key-version history,
    // log availability, and the RO out-of-window rejection all move
    // together (`logged` is dead past this point).
    backend_->TruncateHistory(snapshot_base_);
    read_only_->OnHistoryTruncated(snapshot_base_);
    ChargeStorageIo(/*on_protocol_cpu=*/false);
  }
}

void TransEdgeNode::ChargeStorageIo(bool on_protocol_cpu) {
  const storage::StorageIoStats& s = backend_->io_stats();
  const auto delta = [](uint64_t cur, uint64_t prev) {
    return static_cast<sim::Time>(cur - prev);
  };
  const CostModel& c = config_.cost;
  sim::Time cost =
      delta(s.wal_appends, charged_io_.wal_appends) * c.wal_append +
      (delta(s.wal_syncs, charged_io_.wal_syncs) +
       delta(s.file_syncs, charged_io_.file_syncs)) *
          c.disk_fsync +
      delta(s.pages_written, charged_io_.pages_written) * c.page_write +
      delta(s.pages_read, charged_io_.pages_read) * c.page_read +
      delta(s.wal_records_replayed, charged_io_.wal_records_replayed) *
          c.wal_read;
  charged_io_ = s;
  if (cost == 0) return;  // In-memory backend: never any I/O to charge.
  if (on_protocol_cpu) {
    cpu_.Charge(env_->now(), cost);
  } else {
    io_cpu_.Charge(env_->now(), cost);
  }
}

void TransEdgeNode::ScheduleApplyDrain() {
  if (apply_inflight_ || apply_queue_.empty()) return;
  apply_inflight_ = true;
  sim::Time done =
      apply_cpu_.Charge(env_->now(), ApplyCostFor(apply_queue_.front()));
  // Route through the halt-gated Schedule so a parked replica's pending
  // apply never fires into a successor's world.
  Schedule(done - env_->now(), [this] {
    PendingApply entry = std::move(apply_queue_.front());
    apply_queue_.pop_front();
    apply_inflight_ = false;
    // Pin the protocol CPU to now so follow-up sends (client replies,
    // 2PC legs) are never stamped in the past.
    cpu_.Charge(env_->now(), 0);
    InstallApply(std::move(entry));
    consensus_->AdvanceConsensus();
    pipeline_->MaybeProposeOnSize();
    ScheduleApplyDrain();
  });
}

}  // namespace transedge::core
