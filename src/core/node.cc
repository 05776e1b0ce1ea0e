#include "core/node.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/augustus_baseline.h"
#include "core/batch_apply.h"
#include "core/batch_pipeline.h"
#include "core/consensus/consensus.h"
#include "core/read_only_service.h"
#include "core/two_pc_coordinator.h"
#include "core/watch_service.h"

namespace transedge::core {

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
      backend_(storage::MakeStorageBackend(config.storage_kind,
                                           config.durability, disk)),
      tree_(config.merkle_depth) {
  // The private-base conversion must happen in this class's scope.
  NodeContext* ctx = this;

  Consensus::Hooks consensus_hooks;
  consensus_hooks.on_decided = [this](Consensus::Decided d) {
    OnDecided(std::move(d.batch), std::move(d.certificate),
              std::move(d.post_tree));
  };
  consensus_hooks.on_view_adopted = [this] {
    // Only leader-side state belongs to a view. The read tier serves
    // from the applied log, which every replica keeps applying whatever
    // its view: parked round-2 requests stay parked and watches keep
    // streaming from the replica that registered them.
    pipeline_->OnViewChange();
    two_pc_->OnViewChange();
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
}

Status TransEdgeNode::RecoverFromStorage(const storage::RecoverOptions& opts) {
  TE_ASSIGN_OR_RETURN(storage::RecoveredState recovered,
                      backend_->Recover(opts));

  // Replay the retained log through the install step, the way PBFT
  // re-executes its logged requests after loading a stable checkpoint.
  // Every entry re-forms the prepare index; the entries beyond the
  // checkpoint also put their writes. A group prepared below the
  // retained log cannot be re-formed, so a write it commits beyond the
  // checkpoint fails recovery.
  const storage::SmrLog& log = backend_->log();
  for (BatchId id = log.FirstBatchId(); id <= log.LastBatchId(); ++id) {
    const storage::Batch& batch = log.Get(id).value()->batch;
    TE_RETURN_IF_ERROR(
        Install(batch, id > recovered.checkpoint_applied).status());
  }

  // Rebuild the authenticated structure from the recovered store and
  // refuse to come up unless it hashes to a root some quorum certified:
  // the log tail's certificate, or the checkpoint's recorded root when
  // the WAL held nothing beyond it. Buckets keep keys sorted, so the
  // rebuilt tree is canonical and must hash-equal the incremental one.
  // One PutBatch copies and hashes each node once.
  std::vector<merkle::MerkleTree::Write> writes;
  writes.reserve(backend_->store().key_count());
  backend_->store().ForEachLatest(
      [&](const Key& key, const Value& value, BatchId version) {
        writes.push_back({&key, &value, version});
      });
  merkle::MerkleTree rebuilt(config_.merkle_depth);
  rebuilt.PutBatch(writes);
  const crypto::Digest expected = log.empty()
                                      ? recovered.checkpoint_root
                                      : log.back().certificate.merkle_root;
  if (!(rebuilt.RootDigest() == expected)) {
    return Status::VerificationFailed(
        "recovered store does not hash to the certified Merkle root");
  }

  tree_ = std::move(rebuilt);
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
  ChargeStorageIo();
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
  s.protocol_cpu = cpu_.time();
  s.apply_cpu = apply_cpu_.time();
  s.read_cpu = read_cpu_.time();
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

// Which worker runs a handler. A replica has three simulated workers: the
// protocol CPU (`cpu_`), the apply worker (`apply_cpu_`, apply charges
// only) and the read worker (`read_cpu_`). A handler that the replica
// serves itself, that reads only state at or below last_applied(), and
// that writes no consensus, admission or 2PC state runs on the read
// worker: no protocol step rewrites applied, certified state, so it need
// not queue behind a seal or a re-validation (PBFT's read-only
// optimisation, Castro and Liskov, OSDI 1999). CompleteApply runs the
// read tier's apply follow-ups there too. Everything else stays on the
// protocol CPU: forwarding a leader-bound message (OnMessage), Augustus
// reads, whose locks are admission state (BatchPipeline checks them),
// and all protocol work.
sim::CpuMeter& TransEdgeNode::WorkerFor(wire::MessageType type) {
  using wire::MessageType;
  switch (type) {
    case MessageType::kClientRead:
    case MessageType::kRoRequest:
    case MessageType::kRoBatchRequest:
    case MessageType::kWatchSubscribe:
    case MessageType::kWatchUnsubscribe:
      return read_cpu_;
    default:
      return cpu_;
  }
}

void TransEdgeNode::OnMessage(sim::ActorId from, const sim::MessagePtr& msg) {
  if (halted_) return;
  if (byzantine_ == ByzantineBehavior::kCrash) return;

  using wire::MessageType;
  auto type = static_cast<MessageType>(msg->type());

  // Leader-bound traffic arriving at a follower (stale view at the
  // sender) is forwarded to the follower's current leader. Read-only
  // requests are not: every replica holds the applied, certified state
  // they read, so a follower answers them itself. Nor is an unsubscribe:
  // it goes to the replica that serves the watch.
  const bool leader_bound =
      type == MessageType::kCommitRequest ||
      type == MessageType::kCoordPrepare || type == MessageType::kPrepared ||
      type == MessageType::kCommitRecord ||
      type == MessageType::kAugustusRoRequest ||
      type == MessageType::kAugustusRelease ||
      type == MessageType::kWatchSubscribe;
  const bool forward = leader_bound && !IsLeader();
  WorkerScope scope(this, forward ? &cpu_ : &WorkerFor(type));
  Charge(config_.cost.message_handling);
  if (forward) {
    Send(config_.LeaderOf(partition_, consensus_->view()), msg,
         cpu_.busy_until());
    // Expect the leader to make progress on the forwarded work; if the
    // log does not advance, demand a view change (PBFT-style liveness).
    // Augustus reads and releases and watch subscribes log nothing, so
    // this votes out an idle live leader too (ROADMAP item 1). But it is
    // the only thing that replaces an idle partition's dead leader for
    // them: an Augustus read times out without retrying, and a watcher's
    // hint rotation reaches followers, which forward to that leader again.
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
// Decided batches: installed once at decide time, then the apply charge
// ---------------------------------------------------------------------------

Result<std::vector<Key>> TransEdgeNode::Install(const storage::Batch& batch,
                                                bool put_writes) {
  // The writes resolve against the registered groups before the records
  // pop them, through the lookup tree replay uses, so the store and the
  // tree cannot disagree on what a batch wrote.
  std::vector<Key> written;
  if (put_writes) {
    TE_RETURN_IF_ERROR(storage::ForEachBatchWrite(
        batch, partition_map_, partition_,
        InRegisteredGroups(prepared_batches_),
        [&](const WriteOp& w, const crypto::Digest&) {
          backend_->Put(w.key, w.value, batch.id);
          written.push_back(w.key);
        }));
    // Canonical write-key order so every replica pushes identical deltas.
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()),
                  written.end());
  }

  // Pop the committed groups by the id each record names: the certified
  // segment is an exact prefix of the commit queue, so its records come
  // in whole groups. Only a group prepared below the retained log, which
  // recovery cannot re-form, is missing.
  BatchId last_popped = kNoBatch;
  for (const storage::CommitRecord& rec : batch.committed) {
    if (rec.prepared_in_batch == last_popped) continue;
    last_popped = rec.prepared_in_batch;
    Result<txn::PrepareGroup> group = prepared_batches_.PopGroup(last_popped);
    assert(group.ok() || last_popped < backend_->log().FirstBatchId());
    (void)group;
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
    }
    prepared_batches_.AddGroup(batch.id, std::move(pendings));
  }
  return written;
}

void TransEdgeNode::OnDecided(storage::Batch batch,
                              storage::BatchCertificate certificate,
                              merkle::MerkleTree post_tree) {
  // Install the batch: its writes enter the store and the prepare index
  // moves, its certified post-state becomes the current tree and
  // snapshot, and the log appends it.
  Result<std::vector<Key>> written = Install(batch, /*put_writes=*/true);
  assert(written.ok());  // Validation resolved it against the same groups.
  const BatchId id = batch.id;
  const sim::Time apply_cost = BatchComputeCost(batch.TotalTransactions(),
                                                config_.cost.apply_per_txn);
  std::vector<Key> keys;
  if (written.ok()) keys = std::move(written).value();
  tree_ = std::move(post_tree);
  snapshots_.push_back(tree_.GetSnapshot());
  assert(snapshot_base_ + static_cast<BatchId>(snapshots_.size()) ==
         batch.id + 1);

  Status append =
      backend_->log().Append({std::move(batch), std::move(certificate)});
  assert(append.ok());
  (void)append;
  // Durability point: the WAL covers the decision before anything acts
  // on it, and durable engines checkpoint at its certified root. The WAL
  // cost lands on the protocol CPU (group-commit fsync is the decision
  // critical path); zero under the in-memory backend.
  backend_->OnDecided();
  ChargeStorageIo();
  // The 2PC legs whose receivers wait on a certified decision need only
  // the batch's certificate, so they leave now, not when the apply ends.
  const storage::LogEntry& logged = backend_->log().back();
  two_pc_->OnBatchDecided(logged.batch, logged.certificate);

  // The apply is a charge on the apply worker, booked now. The worker
  // starts each charge when the previous one ends, so completions fire
  // in log order; clients see the batch once its charge completes.
  // Routed through the halt-gated Schedule so a parked replica's pending
  // apply never fires into a successor's world.
  const sim::Time done = apply_cpu_.Charge(env_->now(), apply_cost);
  Schedule(done - env_->now(), [this, id, keys = std::move(keys)] {
    // Pin the protocol CPU to now so follow-up sends (client replies,
    // 2PC legs) are never stamped in the past.
    cpu_.Charge(env_->now(), 0);
    CompleteApply(id, keys);
    consensus_->AdvanceConsensus();
    pipeline_->MaybeProposeOnSize();
  });

  consensus_->AdvanceConsensus();
  pipeline_->MaybeProposeOnSize();
}

void TransEdgeNode::CompleteApply(BatchId id, const std::vector<Key>& written) {
  last_applied_ = id;
  ++batches_applied_;

  // The snapshot window counts applied batches, so the history horizon
  // does not depend on how far apply lags.
  bool truncate_due = false;
  if (last_applied_ - snapshot_base_ + 1 >
      static_cast<BatchId>(config_.snapshot_history)) {
    snapshots_.pop_front();
    ++snapshot_base_;
    // Bound history growth along with the snapshots (amortized: a full
    // sweep every 64 batches). The actual truncation is deferred past
    // the engine follow-ups below: truncating the log moves its base
    // and would invalidate `logged`.
    if (snapshot_base_ % 64 == 0) truncate_due = true;
  }

  Result<const storage::LogEntry*> logged_or = backend_->log().Get(id);
  assert(logged_or.ok());
  const storage::LogEntry& logged = *logged_or.value();

  // Engine follow-ups, in the same order the monolithic replica used:
  // leader bookkeeping + local client replies, 2PC legs, parked
  // read-only work, watch pushes.
  pipeline_->OnBatchApplied(logged.batch);
  two_pc_->OnBatchApplied(logged.batch, logged.certificate);
  // The read tier's follow-ups run on the read worker (WorkerFor).
  WorkerScope scope(this, &read_cpu_);
  read_only_->ServeParkedRequests();
  watch_->OnBatchApplied(logged, written);

  if (truncate_due) {
    // One authoritative horizon for every engine: key-version history,
    // log availability, and the RO out-of-window rejection all move
    // together (`logged` is dead past this point).
    backend_->TruncateHistory(snapshot_base_);
    read_only_->OnHistoryTruncated(snapshot_base_);
  }
}

void TransEdgeNode::ChargeStorageIo() {
  const storage::StorageIoStats& s = backend_->io_stats();
  const auto delta = [](uint64_t cur, uint64_t prev) {
    return static_cast<sim::Time>(cur - prev);
  };
  const CostModel& c = config_.cost;
  sim::Time cost =
      delta(s.wal_appends, charged_io_.wal_appends) * c.wal_append +
      delta(s.wal_syncs, charged_io_.wal_syncs) * c.disk_fsync +
      delta(s.pages_read, charged_io_.pages_read) * c.page_read +
      delta(s.wal_records_replayed, charged_io_.wal_records_replayed) *
          c.wal_read;
  charged_io_ = s;
  if (cost == 0) return;  // In-memory backend: never any I/O to charge.
  cpu_.Charge(env_->now(), cost);
}

}  // namespace transedge::core
