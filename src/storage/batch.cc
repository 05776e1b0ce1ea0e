#include "storage/batch.h"

#include "common/codec.h"

namespace transedge::storage {

crypto::Digest Batch::ComputeDigest() const {
  Encoder enc;
  Encode(*this, &enc);
  return crypto::Sha256::Hash(enc.buffer());
}

Status ForEachBatchWrite(
    const Batch& batch, const PartitionMap& pmap, PartitionId self,
    const GroupTxnLookup& lookup,
    const std::function<void(const WriteOp&, const crypto::Digest& key_digest)>&
        fn) {
  auto writes_of = [&](const Transaction& t) {
    for (const WriteOp& w : t.write_set) {
      const crypto::Digest key_digest = crypto::Sha256::Hash(w.key);
      if (pmap.OwnerOf(key_digest) == self) fn(w, key_digest);
    }
  };
  for (const Transaction& t : batch.local) writes_of(t);
  for (const CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;
    const Transaction* t = lookup(rec.prepared_in_batch, rec.txn_id);
    if (t == nullptr) {
      return Status::Corruption(
          "commit record for txn " + std::to_string(rec.txn_id) +
          " names no such transaction in the group prepared in batch " +
          std::to_string(rec.prepared_in_batch));
    }
    writes_of(*t);
  }
  return Status::OK();
}

crypto::Digest ReadOnlySegment::ComputeDigest() const {
  Encoder enc;
  Encode(*this, &enc);
  return crypto::Sha256::Hash(enc.buffer());
}

Bytes BatchCertificate::SignedPayload() const {
  Encoder enc;
  enc.PutString("transedge-batch-cert");
  enc.PutU32(partition);
  enc.PutI64(batch_id);
  enc.PutRaw(batch_digest.bytes.data(), batch_digest.bytes.size());
  enc.PutRaw(merkle_root.bytes.data(), merkle_root.bytes.size());
  enc.PutRaw(ro_digest.bytes.data(), ro_digest.bytes.size());
  return enc.Take();
}

Status BatchCertificate::Verify(
    const crypto::Verifier& verifier, size_t required,
    const std::vector<crypto::NodeId>& member_ids) const {
  return signatures.VerifyQuorum(verifier, SignedPayload(), required,
                                 member_ids);
}

}  // namespace transedge::storage
