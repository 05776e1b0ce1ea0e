#include "storage/batch.h"

#include "common/codec.h"

namespace transedge::storage {

crypto::Digest Batch::ComputeDigest() const {
  Encoder enc;
  Encode(*this, &enc);
  return crypto::Sha256::Hash(enc.buffer());
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
