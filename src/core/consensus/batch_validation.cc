#include "core/consensus/batch_validation.h"

#include "core/batch_apply.h"
#include "txn/footprint_index.h"

namespace transedge::core {

Bytes ProposalSignPayload(const crypto::Digest& digest) {
  Encoder enc;
  enc.PutString("transedge-batch-proposal");
  enc.PutRaw(digest.bytes.data(), digest.bytes.size());
  return enc.Take();
}

storage::BatchCertificate CertificatePayloadFor(PartitionId partition,
                                                const storage::Batch& batch,
                                                const crypto::Digest& digest) {
  storage::BatchCertificate payload;
  payload.partition = partition;
  payload.batch_id = batch.id;
  payload.batch_digest = digest;
  payload.merkle_root = batch.ro.merkle_root;
  payload.ro_digest = batch.ro.ComputeDigest();
  return payload;
}

Status ValidateProposedBatch(NodeContext* ctx, const storage::Batch& batch,
                             merkle::MerkleTree* post_tree) {
  const SystemConfig& config = ctx->config();
  const storage::SmrLog& log = ctx->log();
  if (batch.partition != ctx->partition()) {
    return Status::InvalidArgument("batch for wrong partition");
  }
  if (batch.id != log.LastBatchId() + 1) {
    return Status::FailedPrecondition("batch id not next in log");
  }

  // Freshness window (§4.4.2): a malicious leader cannot timestamp a
  // batch far from real time.
  int64_t skew = batch.ro.timestamp_us - ctx->now();
  if (skew < -config.freshness_window || skew > config.freshness_window) {
    return Status::VerificationFailed("batch timestamp outside window");
  }

  ctx->Charge(ctx->BatchComputeCost(batch.TotalTransactions(),
                                    config.cost.validate_per_txn));

  // Re-run Definition 3.1 on every transaction the leader admitted.
  txn::FootprintIndex batch_index;
  auto check = [&](const Transaction& t) -> Status {
    TE_RETURN_IF_ERROR(ctx->CheckReadVersions(t));
    if (batch_index.ConflictsWith(t)) {
      return Status::Conflict("conflict inside proposed batch");
    }
    if (ctx->prepared_batches().footprint().ConflictsWith(t)) {
      return Status::Conflict("conflict with prepared transaction");
    }
    batch_index.Add(t);
    return Status::OK();
  };
  for (const Transaction& t : batch.local) TE_RETURN_IF_ERROR(check(t));
  for (const Transaction& t : batch.prepared) TE_RETURN_IF_ERROR(check(t));

  // The committed segment must be exactly a prefix of the commit queue
  // the leader drew it from (Definition 4.1). We never see the 2PC
  // decisions, so which prefix is the leader's call; its shape is not.
  const txn::PreparedBatches& prepared = ctx->prepared_batches();
  TE_RETURN_IF_ERROR(CheckCommittedPrefix(prepared, batch.committed));

  // LCE and CD vector: the leader's Algorithm 1 over the same base.
  storage::ReadOnlySegment expected = DeriveLceAndCdVector(
      log.empty() ? nullptr : &log.back().batch.ro, batch.committed,
      ctx->partition(), batch.id, config.num_partitions);
  if (batch.ro.lce != expected.lce) {
    return Status::VerificationFailed("LCE mismatch");
  }
  if (!(batch.ro.cd_vector == expected.cd_vector)) {
    return Status::VerificationFailed("CD vector mismatch");
  }

  // Merkle root: replay the writes on a clone and compare roots.
  *post_tree = ctx->tree().Clone();
  TE_RETURN_IF_ERROR(ApplyBatchWritesToTree(
      post_tree, ctx->partition_map(), ctx->partition(), batch, prepared));
  if (post_tree->RootDigest() != batch.ro.merkle_root) {
    return Status::VerificationFailed("merkle root mismatch");
  }
  return Status::OK();
}

size_t CountMatchingVotes(const std::map<crypto::NodeId, crypto::Digest>& votes,
                          const crypto::Digest& digest) {
  size_t n = 0;
  for (const auto& [node, d] : votes) {
    if (d == digest) ++n;
  }
  return n;
}

size_t SendEquivocatingVariants(NodeContext* ctx, const sim::MessagePtr& main,
                                const sim::MessagePtr& alt, sim::Time at) {
  size_t sent = 0;
  bool flip = false;
  for (crypto::NodeId member : ctx->cluster_members()) {
    if (member == ctx->id()) continue;
    ctx->Send(member, flip ? alt : main, at);
    flip = !flip;
    ++sent;
  }
  return sent;
}

crypto::SignatureSet CollectVerifiedShares(
    NodeContext* ctx, const Bytes& payload,
    const std::map<crypto::NodeId, crypto::Digest>& votes,
    const std::map<crypto::NodeId, crypto::Signature>& shares,
    const crypto::Digest& digest, size_t max_signatures) {
  crypto::SignatureSet set;
  for (const auto& [node, vote_digest] : votes) {
    if (set.size() >= max_signatures) break;
    if (!(vote_digest == digest)) continue;
    auto share = shares.find(node);
    if (share == shares.end()) continue;
    if (ctx->verifier().Verify(payload, share->second)) {
      set.Add(share->second);
    }
  }
  return set;
}

storage::BatchCertificate AssembleCertificateFromShares(
    NodeContext* ctx, const storage::Batch& batch,
    const crypto::Digest& digest,
    const std::map<crypto::NodeId, crypto::Digest>& votes,
    const std::map<crypto::NodeId, crypto::Signature>& shares) {
  storage::BatchCertificate cert =
      CertificatePayloadFor(ctx->partition(), batch, digest);
  cert.signatures =
      CollectVerifiedShares(ctx, cert.SignedPayload(), votes, shares, digest,
                            ctx->config().quorum_size());
  return cert;
}

}  // namespace transedge::core
