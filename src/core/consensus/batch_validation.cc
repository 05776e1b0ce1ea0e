#include "core/consensus/batch_validation.h"

#include <set>
#include <vector>

#include "core/batch_apply.h"
#include "txn/cd_vector.h"
#include "core/footprint_index.h"
#include "txn/prepared_batches.h"

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
                             merkle::MerkleTree* post_tree,
                             const ProposalChain* chain) {
  const SystemConfig& config = ctx->config();
  storage::SmrLog& log = ctx->mutable_log();
  txn::PreparedBatches& prepared = ctx->prepared_batches();
  static const std::vector<const storage::Batch*> kNoPending;
  const std::vector<const storage::Batch*>& pending =
      chain != nullptr ? chain->pending : kNoPending;
  if (batch.partition != ctx->partition()) {
    return Status::InvalidArgument("batch for wrong partition");
  }
  BatchId expected_id =
      chain != nullptr ? chain->next_id : log.LastBatchId() + 1;
  if (batch.id != expected_id) {
    return Status::FailedPrecondition("batch id not next in log");
  }

  // Freshness window (§4.4.2): a malicious leader cannot timestamp a
  // batch far from real time.
  int64_t skew = batch.ro.timestamp_us - ctx->now();
  if (skew < -config.freshness_window || skew > config.freshness_window) {
    return Status::VerificationFailed("batch timestamp outside window");
  }

  // Like the leader's proposal, re-validation pays the superlinear churn
  // term per admission shard (balanced-router estimate; the routers are
  // uniform). One shard charges the whole batch as one term.
  const size_t shards = config.pipeline_shards == 0 ? 1
                                                    : config.pipeline_shards;
  const size_t n = batch.TotalTransactions();
  std::vector<size_t> sizes(shards, n / shards);
  for (size_t i = 0; i < n % shards; ++i) ++sizes[i];
  ctx->Charge(ctx->BatchComputeCost(sizes, config.cost.validate_per_txn));

  // Re-run Definition 3.1 on every transaction the leader admitted. With
  // predecessors in flight, their admitted transactions count as part of
  // the batch window: the new batch must not conflict with them either.
  FootprintIndex batch_index;
  for (const storage::Batch* p : pending) {
    for (const Transaction& t : p->local) batch_index.Add(t);
    for (const Transaction& t : p->prepared) batch_index.Add(t);
  }
  auto check = [&](const Transaction& t) -> Status {
    Transaction restricted = ctx->RestrictToPartition(t);
    TE_RETURN_IF_ERROR(ctx->CheckReadVersions(restricted));
    if (batch_index.ConflictsWith(t)) {
      return Status::Conflict("conflict inside proposed batch");
    }
    if (ctx->pending_footprint().ConflictsWith(t)) {
      return Status::Conflict("conflict with prepared transaction");
    }
    batch_index.Add(t);
    return Status::OK();
  };
  for (const Transaction& t : batch.local) TE_RETURN_IF_ERROR(check(t));
  for (const Transaction& t : batch.prepared) TE_RETURN_IF_ERROR(check(t));

  // The committed segment must be exactly a ready prefix of our prepare
  // groups, in Definition 4.1 order. Groups already committed by an
  // in-flight predecessor are excluded from the effective queue.
  auto find_txn = [&](TxnId id) -> const Transaction* {
    if (const Transaction* t = prepared.FindTxn(id)) return t;
    for (const storage::Batch* p : pending) {
      for (const Transaction& t : p->prepared) {
        if (t.id == id) return &t;
      }
    }
    return nullptr;
  };
  {
    std::set<BatchId> window_committed;
    for (const storage::Batch* p : pending) {
      for (const storage::CommitRecord& rec : p->committed) {
        window_committed.insert(rec.prepared_in_batch);
      }
    }
    std::vector<BatchId> group_ids;
    for (const storage::CommitRecord& rec : batch.committed) {
      if (group_ids.empty() || group_ids.back() != rec.prepared_in_batch) {
        group_ids.push_back(rec.prepared_in_batch);
      }
      if (find_txn(rec.txn_id) == nullptr) {
        return Status::VerificationFailed(
            "commit record references unknown transaction");
      }
    }
    for (size_t i = 1; i < group_ids.size(); ++i) {
      if (group_ids[i - 1] >= group_ids[i]) {
        return Status::VerificationFailed(
            "commit records violate prepare-group order");
      }
    }
    if (!group_ids.empty()) {
      for (BatchId gid : group_ids) {
        if (window_committed.count(gid) > 0) {
          return Status::VerificationFailed(
              "prepare group already committed by an in-flight batch");
        }
      }
      // The effective queue: registered groups not committed in flight,
      // followed by groups prepared by in-flight batches (those cannot
      // be ready yet — 2PC outcomes need the prepare applied — so their
      // presence here only anchors the order check).
      BatchId effective_head = kNoBatch;
      bool have_head = false;
      for (BatchId gid : prepared.GroupIds()) {
        if (window_committed.count(gid) > 0) continue;
        effective_head = gid;
        have_head = true;
        break;
      }
      if (!have_head) {
        for (const storage::Batch* p : pending) {
          if (p->prepared.empty()) continue;
          if (window_committed.count(p->id) > 0) continue;
          effective_head = p->id;
          have_head = true;
          break;
        }
      }
      if (!have_head || effective_head != group_ids.front()) {
        return Status::VerificationFailed(
            "committed segment does not start at the oldest prepare group");
      }
    }
  }

  // LCE: must be the prepare-batch id of the last committed group, or
  // carried forward (from the last in-flight predecessor when chaining).
  BatchId expected_lce;
  if (!pending.empty()) {
    expected_lce = pending.back()->ro.lce;
  } else {
    expected_lce = log.empty() ? kNoBatch : log.back().batch.ro.lce;
  }
  if (!batch.committed.empty()) {
    expected_lce = batch.committed.back().prepared_in_batch;
  }
  if (batch.ro.lce != expected_lce) {
    return Status::VerificationFailed("LCE mismatch");
  }

  // CD vector: re-run Algorithm 1 and compare.
  txn::CdVector cd;
  if (!pending.empty()) {
    cd = pending.back()->ro.cd_vector;
  } else {
    cd = log.empty() ? txn::CdVector(config.num_partitions)
                     : log.back().batch.ro.cd_vector;
  }
  if (cd.empty()) cd = txn::CdVector(config.num_partitions);
  for (const storage::CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;
    for (const storage::PreparedInfo& info : rec.participant_info) {
      if (info.cd_vector.size() == cd.size()) cd.PairwiseMax(info.cd_vector);
    }
  }
  cd.Set(ctx->partition(), batch.id);
  if (!(cd == batch.ro.cd_vector)) {
    return Status::VerificationFailed("CD vector mismatch");
  }

  // Merkle root: replay the writes on a clone and compare roots.
  const merkle::MerkleTree& base =
      (chain != nullptr && chain->head_tree != nullptr)
          ? *chain->head_tree
          : ctx->decided_tree();
  *post_tree = base.Clone();
  ApplyBatchWritesToTree(post_tree, ctx->partition_map(), ctx->partition(),
                         batch, find_txn);
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
