#ifndef TRANSEDGE_CORE_CONSENSUS_BATCH_VALIDATION_H_
#define TRANSEDGE_CORE_CONSENSUS_BATCH_VALIDATION_H_

#include <map>

#include "core/node_context.h"
#include "merkle/merkle_tree.h"
#include "storage/batch.h"

namespace transedge::core {

/// Engine-independent pieces of batch certification, shared by every
/// `Consensus` implementation: what a proposal signature covers, what a
/// certificate share covers, and the full Definition 3.1 re-validation a
/// replica runs before voting on a proposed batch.

/// Bytes signed by the leader over a proposed batch digest.
Bytes ProposalSignPayload(const crypto::Digest& digest);

/// The certificate fields (no signatures) every replica's share commits
/// to for `batch`: partition, batch id, batch digest, Merkle root, and
/// the read-only-segment digest.
storage::BatchCertificate CertificatePayloadFor(PartitionId partition,
                                                const storage::Batch& batch,
                                                const crypto::Digest& digest);

/// Definition 3.1 re-validation plus read-only-segment recomputation for
/// a proposed batch, which must take the slot after the log tail:
/// partition/log-position checks, the freshness window (§4.4.2),
/// per-transaction conflict re-checks, the committed segment as an exact
/// prefix of the commit queue (Definition 4.1), LCE and CD vector
/// (Algorithm 1) chained from the log tail, and the Merkle root over the
/// tree at the log tail (core/batch_apply.h). Charges the simulated validation
/// cost. On success fills `post_tree` with the batch's post-state tree.
Status ValidateProposedBatch(NodeContext* ctx, const storage::Batch& batch,
                             merkle::MerkleTree* post_tree);

/// Number of collected votes matching `digest`. Votes carry the digest
/// the voter saw, so an equivocating leader's variants split the count.
size_t CountMatchingVotes(const std::map<crypto::NodeId, crypto::Digest>& votes,
                          const crypto::Digest& digest);

/// The ByzantineBehavior::kEquivocate fault, shared by every engine's
/// proposal path: sends `main` and `alt` alternately to every other
/// cluster member, so the two halves of the cluster see conflicting
/// variants and neither can gather a quorum of matching votes. Returns
/// the number of messages sent (for the engine's stats counter).
size_t SendEquivocatingVariants(NodeContext* ctx, const sim::MessagePtr& main,
                                const sim::MessagePtr& alt, sim::Time at);

/// Collects up to `max_signatures` shares that verify over `payload`,
/// taken from voters whose reported digest matches `digest`. The
/// verify-before-count rule every quorum object (certificate, commit QC)
/// is built on lives here.
crypto::SignatureSet CollectVerifiedShares(
    NodeContext* ctx, const Bytes& payload,
    const std::map<crypto::NodeId, crypto::Digest>& votes,
    const std::map<crypto::NodeId, crypto::Signature>& shares,
    const crypto::Digest& digest, size_t max_signatures);

/// Assembles the batch certificate from vote shares whose digest
/// matches `digest`, verifying each share over the certificate payload,
/// up to quorum_size signatures: the prepare QC both engines lock on and
/// log. Any f+1 of them is a valid client certificate.
storage::BatchCertificate AssembleCertificateFromShares(
    NodeContext* ctx, const storage::Batch& batch,
    const crypto::Digest& digest,
    const std::map<crypto::NodeId, crypto::Digest>& votes,
    const std::map<crypto::NodeId, crypto::Signature>& shares);

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_BATCH_VALIDATION_H_
