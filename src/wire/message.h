#ifndef TRANSEDGE_WIRE_MESSAGE_H_
#define TRANSEDGE_WIRE_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "txn/cd_vector.h"
#include "crypto/signer.h"
#include "merkle/merkle_tree.h"
#include "sim/actor.h"
#include "storage/batch.h"
#include "txn/types.h"

namespace transedge::wire {

/// Discriminators for every message that crosses the simulated network.
enum class MessageType : uint32_t {
  // Client <-> cluster.
  kClientRead = 1,
  kClientReadReply = 2,
  kCommitRequest = 3,
  kCommitReply = 4,
  kRoRequest = 5,
  kRoReply = 6,
  kRoBatchRequest = 7,  // Second round of the read-only protocol.

  // Intra-cluster consensus: PBFT-style proposal and votes.
  kPrePrepare = 20,
  kPrepare = 21,
  kCommit = 22,
  // 23 and 24 are retired; do not reuse them.

  // Intra-cluster consensus: HotStuff-style linear proposal and votes.
  kLinearPropose = 25,
  kLinearVote = 26,
  kLinearQc = 27,

  // View change and catch-up, shared by both consensus engines.
  kLinearViewChange = 28,
  kLinearNewView = 29,
  kLinearCatchUp = 30,

  // Inter-cluster 2PC (leader-to-leader, each step backed by a batch
  // certificate from the sender's cluster).
  kCoordPrepare = 40,
  kPrepared = 41,
  kCommitRecord = 42,

  // Augustus baseline (locking read-only transactions).
  kAugustusRoRequest = 60,
  kAugustusVoteRequest = 61,
  kAugustusVoteReply = 62,
  kAugustusRoReply = 63,
  kAugustusRelease = 64,

  // Watch / subscription push tier (certified delta streaming).
  kWatchSubscribe = 70,
  // 71 is retired; do not reuse it.
  kWatchDelta = 72,
  kWatchUnsubscribe = 73,
  kWatchResubscribe = 74,
};

/// Human-readable message-type name for logs.
const char* MessageTypeName(MessageType type);

/// Convenience base carrying the discriminator.
template <MessageType kType>
struct TypedMessage : sim::Message {
  uint32_t type() const override { return static_cast<uint32_t>(kType); }
  static constexpr MessageType kMessageType = kType;
  bool operator==(const TypedMessage&) const = default;
};

/// Wraps a wire message for the simulated network.
template <typename T>
std::shared_ptr<const T> ShareMsg(T msg) {
  return std::make_shared<const T>(std::move(msg));
}

// ---------------------------------------------------------------------------
// Client <-> cluster
// ---------------------------------------------------------------------------

/// Single-key read issued while a client assembles a read-write
/// transaction (§3.2). Served by any replica from committed state.
struct ClientReadRequest : TypedMessage<MessageType::kClientRead> {
  uint64_t request_id = 0;
  sim::ActorId reply_to = 0;
  Key key;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.reply_to, self.key);
  }
  bool operator==(const ClientReadRequest&) const = default;
};

struct ClientReadReply : TypedMessage<MessageType::kClientReadReply> {
  uint64_t request_id = 0;
  Key key;
  bool found = false;
  Value value;
  /// Version (batch id) the value was read at — becomes the read set's
  /// observed version for OCC validation.
  BatchId version = kNoBatch;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.key, self.found, self.value, self.version);
  }
  bool operator==(const ClientReadReply&) const = default;
};

/// Commit request carrying the full read and write sets (§3.3.1).
struct CommitRequest : TypedMessage<MessageType::kCommitRequest> {
  sim::ActorId reply_to = 0;
  Transaction txn;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.reply_to, self.txn);
  }
  bool operator==(const CommitRequest&) const = default;
};

struct CommitReply : TypedMessage<MessageType::kCommitReply> {
  TxnId txn_id = 0;
  bool committed = false;
  std::string reason;
  /// Abort the client should transparently re-issue against the next
  /// leader (same transaction id; admission dedup protects the old one),
  /// e.g. a view change abandoning an undecided admission.
  bool retryable = false;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.txn_id, self.committed, self.reason, self.retryable);
  }
  bool operator==(const CommitReply&) const = default;
};

/// One authenticated key result inside a read-only response.
struct AuthenticatedRead {
  Key key;
  bool found = false;
  Value value;
  BatchId version = kNoBatch;
  merkle::MerkleProof proof;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.key, self.found, self.value, self.version, self.proof);
  }
  bool operator==(const AuthenticatedRead&) const = default;
};

/// Checks every read's proof (of its value, or of its absence) against
/// `root` in one `MerkleTree::VerifyProofs` pass (§4.2). `key_digests`,
/// when given, holds each read's key SHA-256 in order, so a caller that
/// already hashed the keys does not pay for it twice.
Status VerifyReads(const std::vector<AuthenticatedRead>& reads,
                   const crypto::Digest& root,
                   const std::vector<crypto::Digest>* key_digests = nullptr);

/// Round-1 read-only request: all keys of one accessed partition
/// (§4.3.4). `commit-rot` in the paper's interface.
struct RoRequest : TypedMessage<MessageType::kRoRequest> {
  uint64_t request_id = 0;
  sim::ActorId reply_to = 0;
  std::vector<Key> keys;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.reply_to, self.keys);
  }
  bool operator==(const RoRequest&) const = default;
};

/// Response from a single node: values + Merkle proofs, the batch
/// certificate (f+1 signatures over the root), and the read-only segment
/// metadata the dependency check needs.
struct RoReply : TypedMessage<MessageType::kRoReply> {
  uint64_t request_id = 0;
  PartitionId partition = 0;
  BatchId batch_id = kNoBatch;
  std::vector<AuthenticatedRead> entries;
  storage::BatchCertificate certificate;
  txn::CdVector cd_vector;
  BatchId lce = kNoBatch;
  int64_t timestamp_us = 0;
  /// True when this reply answers a second-round (historical) request.
  bool second_round = false;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.partition, self.batch_id, self.entries,
      self.certificate, self.cd_vector, self.lce, self.timestamp_us,
      self.second_round);
  }
  bool operator==(const RoReply&) const = default;
};

/// Round-2 request: "serve me your state at the earliest batch whose LCE
/// is >= `min_lce`" — the explicit ask for a missing dependency. The
/// node parks the request until such a batch exists.
struct RoBatchRequest : TypedMessage<MessageType::kRoBatchRequest> {
  uint64_t request_id = 0;
  sim::ActorId reply_to = 0;
  std::vector<Key> keys;
  BatchId min_lce = kNoBatch;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.reply_to, self.keys, self.min_lce);
  }
  bool operator==(const RoBatchRequest&) const = default;
};

// ---------------------------------------------------------------------------
// Intra-cluster consensus
// ---------------------------------------------------------------------------

/// A prepare QC bound to the view it formed in: a batch certificate
/// with >= 2f+1 shares, plus >= 2f+1 signatures over the view-bind
/// payload (partition, batch id, digest, view). It justifies a
/// view-change re-proposal of the batch. A replica locked on a
/// conflicting batch at the same id accepts the proposal only when
/// `view >=` its lock view (the two-phase HotStuff unlock rule), and the
/// view-bind quorum keeps a leader from claiming a newer view than the
/// one the QC formed in.
struct Justification {
  uint64_t view = 0;
  storage::BatchCertificate cert;
  crypto::SignatureSet view_sigs;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.cert, self.view_sigs);
  }
  bool operator==(const Justification&) const = default;
};

/// Leader's proposal of the next batch (PBFT engine).
struct PrePrepareMsg : TypedMessage<MessageType::kPrePrepare> {
  uint64_t view = 0;
  storage::Batch batch;
  crypto::Signature leader_signature;  // over the batch digest
  /// Leader's certificate share and view-bind share (together, the
  /// leader's prepare vote).
  crypto::Signature leader_cert_share;
  crypto::Signature leader_view_share;
  /// Set on a view-change re-proposal; fresh proposals carry none.
  bool has_justify = false;
  Justification justify;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.batch, self.leader_signature, self.leader_cert_share,
      self.leader_view_share, self.has_justify);
    if (self.has_justify) v(self.justify);
  }
  bool operator==(const PrePrepareMsg&) const = default;
};

/// Replica vote after re-validating the proposed batch, broadcast to the
/// cluster. `cert_share` signs `BatchCertificate::SignedPayload()`, so
/// 2f+1 matching votes assemble the prepare certificate; `view_share`
/// signs the view-bind payload, so the certificate's view is provable
/// when a view change reports it as a lock.
struct PrepareMsg : TypedMessage<MessageType::kPrepare> {
  uint64_t view = 0;
  BatchId batch_id = kNoBatch;
  crypto::Digest batch_digest;
  crypto::Signature cert_share;
  crypto::Signature view_share;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.batch_id, self.batch_digest, self.cert_share,
      self.view_share);
  }
  bool operator==(const PrepareMsg&) const = default;
};

/// Sent by a replica after it locked on the prepare certificate; 2f+1
/// matching Commits decide the batch.
struct CommitMsg : TypedMessage<MessageType::kCommit> {
  uint64_t view = 0;
  BatchId batch_id = kNoBatch;
  crypto::Digest batch_digest;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.batch_id, self.batch_digest);
  }
  bool operator==(const CommitMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Intra-cluster consensus: linear-vote engine (ConsensusKind::kLinearVote)
// ---------------------------------------------------------------------------

/// Leader's proposal of the next batch (linear-vote engine). Identical
/// role to PrePrepareMsg; replicas answer with votes *to the leader*
/// instead of broadcasting, so (unlike PrePrepareMsg) no leader
/// certificate share travels — the leader seeds its own share into its
/// aggregation state locally.
struct LinearProposeMsg : TypedMessage<MessageType::kLinearPropose> {
  uint64_t view = 0;
  storage::Batch batch;
  crypto::Signature leader_signature;  // over the batch digest
  /// Set on a view-change re-proposal; fresh proposals carry none.
  bool has_justify = false;
  Justification justify;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.batch, self.leader_signature, self.has_justify);
    if (self.has_justify) v(self.justify);
  }
  bool operator==(const LinearProposeMsg&) const = default;
};

/// Voting phases of the linear-vote engine.
inline constexpr uint32_t kLinearPhasePrepare = 0;
inline constexpr uint32_t kLinearPhaseCommit = 1;

/// Replica -> leader vote. The prepare-phase share signs
/// `BatchCertificate::SignedPayload()` — the same bytes as a PBFT
/// certificate share, so the aggregated quorum certificate doubles as
/// the client-facing batch certificate. The commit-phase share signs the
/// engine's commit-vote payload over (partition, batch id, digest).
struct LinearVoteMsg : TypedMessage<MessageType::kLinearVote> {
  uint64_t view = 0;
  BatchId batch_id = kNoBatch;
  uint32_t phase = kLinearPhasePrepare;
  crypto::Digest batch_digest;
  crypto::Signature share;
  /// Prepare phase only: signature over the view-bind payload
  /// (partition, batch id, digest, view). The leader aggregates a quorum
  /// of these into the prepare QC so the view a QC formed in is itself
  /// certified — a byzantine replica cannot inflate its lock view during
  /// a view change, and a byzantine leader cannot inflate a re-proposal
  /// justification.
  crypto::Signature view_share;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.batch_id, self.phase, self.batch_digest, self.share,
      self.view_share);
  }
  bool operator==(const LinearVoteMsg&) const = default;
};

/// Leader -> replicas quorum certificate broadcast. `cert` is the batch
/// certificate assembled from prepare shares: the prepare QC carries
/// >= 2f+1 of them (any f+1 subset is a valid client certificate); the
/// commit QC repeats it, alongside `commit_sigs`, so a replica that
/// missed the prepare QC can still decide.
struct LinearQcMsg : TypedMessage<MessageType::kLinearQc> {
  uint64_t view = 0;
  uint32_t phase = kLinearPhasePrepare;
  storage::BatchCertificate cert;
  /// Commit phase only: >= 2f+1 signatures over the commit-vote payload.
  crypto::SignatureSet commit_sigs;
  /// Prepare phase only: >= 2f+1 signatures over the view-bind payload,
  /// certifying the view this QC formed in (see LinearVoteMsg::view_share).
  crypto::SignatureSet view_sigs;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.phase, self.cert, self.commit_sigs, self.view_sigs);
  }
  bool operator==(const LinearQcMsg&) const = default;
};

// ---------------------------------------------------------------------------
// View change and catch-up, shared by both consensus engines
// (core/consensus/view_change.h)
// ---------------------------------------------------------------------------

/// One prepare-QC lock carried inside a view-change message: the locked
/// batch, the QC that locked it, the view the QC formed in, and the
/// quorum of view-bind signatures proving that view claim. A replica
/// reports one lock per slot it holds a lock on.
struct LinearLockReport {
  uint64_t view = 0;
  storage::Batch batch;
  storage::BatchCertificate cert;
  crypto::SignatureSet view_sigs;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.view, self.batch, self.cert, self.view_sigs);
  }
  bool operator==(const LinearLockReport&) const = default;
};

/// Replica -> prospective leader of `new_view` when the progress timer
/// fires: O(n) messages per view change.
struct LinearViewChangeMsg : TypedMessage<MessageType::kLinearViewChange> {
  uint64_t new_view = 0;
  BatchId last_committed = kNoBatch;
  crypto::Signature signature;
  /// Lock reports for every undecided slot the sender holds a prepare QC
  /// for, in slot order. The prospective leader must re-propose, per
  /// slot, the batch of the highest-view lock among its 2f+1 view-change
  /// messages — a commit quorum in an earlier view implies 2f+1 locked
  /// replicas, so every view-change quorum contains at least one honest
  /// report of that lock and a batch decided anywhere survives the view
  /// change. The reported view must be backed by `view_sigs`; an
  /// inflated claim is dropped.
  std::vector<LinearLockReport> locks;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.new_view, self.last_committed, self.signature, self.locks);
  }
  bool operator==(const LinearViewChangeMsg&) const = default;
};

/// New leader's QC-carrying announcement: 2f+1 view-change signatures
/// prove the view change is legitimate, and every replica adopts on
/// receipt.
struct LinearNewViewMsg : TypedMessage<MessageType::kLinearNewView> {
  uint64_t new_view = 0;
  crypto::SignatureSet proof;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.new_view, self.proof);
  }
  bool operator==(const LinearNewViewMsg&) const = default;
};

/// Decided-batch state transfer to a lagging replica. Sent by the
/// replica that receives a LinearViewChangeMsg whose `last_committed`
/// trails its own log: one message per missing log entry, carrying the
/// batch and the quorum certificate that decided it. `view`/`view_proof`
/// piggyback the sender's current view and its 2f+1 new-view proof
/// (empty at view 0) so a replica that also missed view changes can
/// adopt the current view and resume voting.
struct LinearCatchUpMsg : TypedMessage<MessageType::kLinearCatchUp> {
  storage::Batch batch;
  storage::BatchCertificate cert;
  uint64_t view = 0;
  crypto::SignatureSet view_proof;
  /// Oldest batch id the sender's log still retains (history below the
  /// snapshot horizon is truncated): a peer lagging below this cannot be
  /// caught up entry-by-entry and must recover from durable storage
  /// instead of parking on an unfillable gap.
  BatchId first_retained = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.batch, self.cert, self.view, self.view_proof, self.first_retained);
  }
  bool operator==(const LinearCatchUpMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Inter-cluster 2PC
// ---------------------------------------------------------------------------

/// Coordinator-prepare (§3.3.2, step 3): the coordinator cluster proved
/// it prepared `txn` (certificate of the batch holding the prepare
/// record) and asks the participant to prepare too.
struct CoordPrepareMsg : TypedMessage<MessageType::kCoordPrepare> {
  Transaction txn;
  PartitionId coordinator = 0;
  storage::BatchCertificate proof;
  /// Set only by a leader resuming an inherited prepare group after a
  /// view change: participants re-report their vote from replicated
  /// state instead of treating the message as a duplicate.
  bool resend = false;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.txn, self.coordinator, self.proof, self.resend);
  }
  bool operator==(const CoordPrepareMsg&) const = default;
};

/// Participant's prepared message (§3.3.3, step 5): its vote, the batch
/// where its prepare record landed, the piggybacked CD vector of that
/// batch (§4.3.3(c)), and the batch certificate as proof.
struct PreparedMsg : TypedMessage<MessageType::kPrepared> {
  TxnId txn_id = 0;
  storage::PreparedInfo info;
  storage::BatchCertificate proof;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.txn_id, self.info, self.proof);
  }
  bool operator==(const PreparedMsg&) const = default;
};

/// Coordinator's decision (§3.3.4, step 7), including all collected
/// prepared messages so participants can derive CD vectors.
struct CommitRecordMsg : TypedMessage<MessageType::kCommitRecord> {
  TxnId txn_id = 0;
  bool commit = false;
  std::vector<storage::PreparedInfo> participant_info;
  storage::BatchCertificate proof;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.txn_id, self.commit, self.participant_info, self.proof);
  }
  bool operator==(const CommitRecordMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Augustus baseline
// ---------------------------------------------------------------------------

/// Client -> leader: execute a locking read-only transaction on this
/// partition's keys (Augustus-style, shared locks + replica voting).
struct AugustusRoRequest : TypedMessage<MessageType::kAugustusRoRequest> {
  uint64_t request_id = 0;
  sim::ActorId reply_to = 0;
  std::vector<Key> keys;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.reply_to, self.keys);
  }
  bool operator==(const AugustusRoRequest&) const = default;
};

/// Leader -> replicas: vote on the read snapshot.
struct AugustusVoteRequest : TypedMessage<MessageType::kAugustusVoteRequest> {
  uint64_t request_id = 0;
  std::vector<Key> keys;
  BatchId snapshot_batch = kNoBatch;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.keys, self.snapshot_batch);
  }
  bool operator==(const AugustusVoteRequest&) const = default;
};

struct AugustusVoteReply : TypedMessage<MessageType::kAugustusVoteReply> {
  uint64_t request_id = 0;
  bool vote = true;
  crypto::Signature signature;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.vote, self.signature);
  }
  bool operator==(const AugustusVoteReply&) const = default;
};

/// Leader -> client: values + 2f+1 votes.
struct AugustusRoReply : TypedMessage<MessageType::kAugustusRoReply> {
  uint64_t request_id = 0;
  PartitionId partition = 0;
  std::vector<AuthenticatedRead> entries;
  uint32_t votes = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id, self.partition, self.entries, self.votes);
  }
  bool operator==(const AugustusRoReply&) const = default;
};

/// Client -> leader: release the shared locks.
struct AugustusRelease : TypedMessage<MessageType::kAugustusRelease> {
  uint64_t request_id = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.request_id);
  }
  bool operator==(const AugustusRelease&) const = default;
};

// ---------------------------------------------------------------------------
// Watch / subscription push tier
// ---------------------------------------------------------------------------

/// Client -> leader: register a key-range watch on this partition, or
/// bring one current. The range is lexicographic and inclusive on both
/// ends. `resume_from` names the last batch the watcher verified, or
/// kNoBatch if it has none. The answer is one WatchDeltaMsg at the
/// serving replica's applied head, chained on `resume_from` and carrying
/// every in-range key whose version at the head is later: the seed of
/// the whole range for a fresh watch, only what changed for a resume.
struct WatchSubscribeRequest : TypedMessage<MessageType::kWatchSubscribe> {
  uint64_t watch_id = 0;
  sim::ActorId reply_to = 0;
  Key range_lo;
  Key range_hi;
  BatchId resume_from = kNoBatch;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.watch_id, self.reply_to, self.range_lo, self.range_hi,
      self.resume_from);
  }
  bool operator==(const WatchSubscribeRequest&) const = default;
};

/// The certified part of a watch delta: in-range keys as of one applied
/// batch, each with a Merkle proof against that batch's certified root,
/// and the batch certificate. A live push carries the batch's in-range
/// writes; its body is built once per (range, batch), and every watcher
/// of the range gets the same immutable body behind its own
/// WatchDeltaMsg header. The answer to a subscribe carries every
/// in-range key changed since the batch the subscribe named.
struct WatchDeltaBody {
  std::vector<AuthenticatedRead> entries;
  storage::BatchCertificate certificate;

  /// The one empty body that every default-constructed delta shares, so
  /// building a delta allocates none.
  static const std::shared_ptr<const WatchDeltaBody>& Empty();

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.entries, self.certificate);
  }
  bool operator==(const WatchDeltaBody&) const = default;
};

/// Serving replica -> watcher: the in-range keys that changed after
/// `prev_batch_id`, as of applied batch `batch_id`, with their proofs and
/// certificate, in `body`. The serving replica is the one that
/// registered the watch, whatever its view. Every watch message that
/// carries state is a delta:
///   - the answer to a subscribe chains on the batch the subscribe
///     named, so `prev_batch_id == kNoBatch` marks a seed of the whole
///     range; a resume with nothing new is answered with no entries, and
///     may repeat that batch;
///   - a live push carries one applied batch's in-range writes and names
///     the last batch this watch was sent.
/// `prev_batch_id` chains the stream, so a watcher detects a lost delta.
/// It is the sender's unsigned claim: it shows nothing about writes a
/// lying leader left out. The header is per watcher; the body encodes
/// inline, so the bytes are those of one flat message.
struct WatchDeltaMsg : TypedMessage<MessageType::kWatchDelta> {
  uint64_t watch_id = 0;
  PartitionId partition = 0;
  BatchId batch_id = kNoBatch;
  BatchId prev_batch_id = kNoBatch;
  /// Never null, never edited in place: a sender that changes a body
  /// builds a new one.
  std::shared_ptr<const WatchDeltaBody> body = WatchDeltaBody::Empty();

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.watch_id, self.partition, self.batch_id, self.prev_batch_id,
      self.body);
  }
  /// Compares the bodies' contents, not their addresses.
  bool operator==(const WatchDeltaMsg& other) const {
    return watch_id == other.watch_id && partition == other.partition &&
           batch_id == other.batch_id &&
           prev_batch_id == other.prev_batch_id && *body == *other.body;
  }
};

/// Watcher -> the replica serving the watch: drop it. No reply.
struct WatchUnsubscribe : TypedMessage<MessageType::kWatchUnsubscribe> {
  uint64_t watch_id = 0;
  sim::ActorId reply_to = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.watch_id, self.reply_to);
  }
  bool operator==(const WatchUnsubscribe&) const = default;
};

/// Leader -> watcher: the subscribe cannot be served here — it resumes
/// from a batch ahead of this replica's applied head, or the head has no
/// log entry to certify an answer with (a recovered log that ends at its
/// checkpoint). Explicitly retryable: the watcher resumes from its last
/// verified batch at the next replica in rotation.
struct WatchResubscribeRequired : TypedMessage<MessageType::kWatchResubscribe> {
  uint64_t watch_id = 0;
  PartitionId partition = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.watch_id, self.partition);
  }
  bool operator==(const WatchResubscribeRequired&) const = default;
};

}  // namespace transedge::wire

#endif  // TRANSEDGE_WIRE_MESSAGE_H_
