#ifndef TRANSEDGE_CORE_TWO_PC_COORDINATOR_H_
#define TRANSEDGE_CORE_TWO_PC_COORDINATOR_H_

#include <functional>
#include <map>

#include "core/node_context.h"
#include "storage/batch.h"
#include "wire/message.h"

namespace transedge::core {

/// Cross-cluster 2PC for distributed transactions (§3.3). Every message
/// leg is backed by a batch certificate from the sender's cluster and
/// reaches f+1 members of the receiving cluster (`SendToCluster`); only
/// a retry's re-solicitation (below) reaches every member.
///
/// The legs a partition owes follow from its certified log, not from
/// which leader admitted a transaction. The two legs whose receivers wait
/// on a certified decision leave from the leader as soon as the batch
/// decides (`OnBatchDecided`): our yes-vote for each prepared transaction
/// another partition coordinates (`SendVote`), and the fan-out of each
/// commit record we coordinate to the participants it names. The
/// coordinator-prepares of each prepared transaction this partition
/// coordinates leave from the leader that applies the batch
/// (`Coordinate`). A replica that becomes leader sends the decide-time
/// legs of every batch it decided and has not applied, so no leg is lost
/// to a view change between decide and apply; a duplicate is harmless,
/// since a vote counts once per partition and a decision records once.
/// A new leader resumes the undecided groups this partition coordinates
/// from their logged prepare batch, the way a PBFT primary re-derives
/// protocol state from the certified log after a view change. A client
/// retry that reattaches to an undecided coordination re-solicits the
/// missing votes from every member of the silent participants, so a
/// participant whose leader died before it prepared changes view and is
/// asked again.
///
/// Admission of participant transactions is delegated to the batch
/// pipeline through hooks; decisions are recorded into the shared
/// prepared-batches structure and reach the log via the next batch's
/// committed segment.
class TwoPcCoordinator {
 public:
  struct Stats {
    uint64_t dist_committed = 0;
    uint64_t dist_aborted = 0;
  };

  struct Hooks {
    /// 2PC dedup owned by admission (covers client retries too).
    std::function<bool(TxnId)> already_seen;
    /// Participant-side admission: marks seen and enqueues on success.
    std::function<Status(const Transaction&)> admit_prepared;
    /// Size-triggered proposal check after enqueueing a participant txn.
    std::function<void()> maybe_propose;
    /// True while the id's footprint is still held by admission: admitted
    /// here and neither applied nor abandoned. Distinguishes an in-flight
    /// prepare (report follows its batch) from a final no-vote when a
    /// resuming coordinator re-asks for our vote.
    std::function<bool(TxnId)> in_flight;
  };

  TwoPcCoordinator(NodeContext* ctx, Hooks hooks);

  /// `txn` passed admission here with us as coordinator: `client` is
  /// answered when its commit record applies.
  void BeginCoordination(const Transaction& txn, sim::ActorId client);

  void HandleCoordPrepare(sim::ActorId from, const wire::CoordPrepareMsg& msg);
  void HandlePrepared(sim::ActorId from, const wire::PreparedMsg& msg);
  void HandleCommitRecord(sim::ActorId from, const wire::CommitRecordMsg& msg);

  /// The 2PC legs of a batch that just decided and entered the log, sent
  /// by the leader: participant votes (step 5) and the commit-record
  /// fan-out (step 7). Each needs only the batch's certificate.
  void OnBatchDecided(const storage::Batch& logged,
                      const storage::BatchCertificate& cert);

  /// The 2PC work of a decided batch that applied: the leader's
  /// coordinator-prepares (step 3) and outcome counts, and the client
  /// replies (step 8), sent by the replica that holds the client whatever
  /// its view.
  void OnBatchApplied(const storage::Batch& logged,
                      const storage::BatchCertificate& cert);

  /// A new view was adopted. Clients of admissions the view change wiped
  /// get a retryable abort. A client whose commit record is decided stays
  /// until the record applies here. A demoted leader forgets the other
  /// clients and all votes: the new leader drives the logged groups, and
  /// a client's timeout retry reattaches there. A leader sends the
  /// decide-time legs of every batch it decided and has not applied, then
  /// resumes each undecided group this partition coordinates that it
  /// holds no votes for: its yes-vote, CD vector and certificate come
  /// from the prepare batch's log entry, and `resend`
  /// coordinator-prepares make the participants re-report their votes
  /// from replicated state. A group whose prepare batch fell below the
  /// history horizon has no certificate left to re-prove it with and is
  /// aborted unilaterally.
  void OnViewChange();

  /// A client retry for a transaction this partition coordinates:
  /// answers it from the recorded outcome when the transaction decided
  /// while no client was attached, and otherwise attaches `client`; a
  /// retry that finds votes still missing re-solicits them. False when
  /// the id is not ours — the caller proceeds with ordinary
  /// admission/dedup.
  bool ReattachClient(TxnId txn_id, sim::ActorId client);

  const Stats& stats() const { return stats_; }

 private:
  /// Votes collected for a logged prepare this partition coordinates.
  struct Coordinating {
    Transaction txn;
    std::map<PartitionId, storage::PreparedInfo> votes;
    /// A client retry may re-solicit missing votes from this time on.
    sim::Time resolicit_at = 0;
  };

  /// The 2PC outcome of a commit record applied while no client was
  /// attached, kept until the history horizon passes its batch.
  struct Outcome {
    bool committed = false;
    BatchId logged_in = kNoBatch;
  };

  /// Records our yes-vote for `txn`, prepared here in `prepared_in`, and
  /// sends the coordinator-prepares proved by that batch's certificate;
  /// `resend` when a new leader resumes the logged group.
  void Coordinate(const Transaction& txn, BatchId prepared_in,
                  const txn::CdVector& cd_vector,
                  const storage::BatchCertificate& proof, bool resend);

  /// Sends the coordinator-prepare to each participant whose vote is
  /// missing: to f+1 members, or to every member when `every_member`.
  void SolicitVotes(const Coordinating& coord,
                    const storage::BatchCertificate& proof, bool resend,
                    bool every_member);

  /// Our vote on `txn` to its coordinator: yes with the batch that
  /// prepared it here, or no when `prepared_in` is kNoBatch.
  void SendVote(const Transaction& txn, BatchId prepared_in,
                const txn::CdVector& cd_vector,
                const storage::BatchCertificate& proof);

  /// Records the decision once every participant voted.
  void MaybeDecide(std::map<TxnId, Coordinating>::iterator it);

  NodeContext* ctx_;
  Hooks hooks_;

  std::map<TxnId, Coordinating> coordinating_;
  /// Ordered by TxnId: OnViewChange answers these clients in map order,
  /// so iteration order must be deterministic.
  std::map<TxnId, sim::ActorId> clients_;
  std::map<TxnId, Outcome> orphan_outcomes_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_TWO_PC_COORDINATOR_H_
