#ifndef TRANSEDGE_CRYPTO_HMAC_H_
#define TRANSEDGE_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace transedge::crypto {

/// HMAC-SHA256 (RFC 2104), verified against the RFC 4231 test vectors.
///
/// TransEdge authenticates inter-node traffic with HMAC authenticator
/// vectors, the same construction PBFT uses for its common-case messages.
/// A byzantine node cannot forge another node's authenticator because it
/// does not hold the corresponding pairwise secret.
///
/// `HmacKey` holds a key's SHA-256 states after the ipad and opad blocks,
/// so each MAC under a long-lived key skips those two compressions.
class HmacKey {
 public:
  explicit HmacKey(const Bytes& key);

  Digest Mac(const uint8_t* data, size_t len) const;
  Digest Mac(const Bytes& data) const { return Mac(data.data(), data.size()); }

 private:
  Sha256 inner_;  // Has absorbed key ^ ipad.
  Sha256 outer_;  // Has absorbed key ^ opad.
};

/// One-shot HMAC under a key used once.
Digest HmacSha256(const Bytes& key, const uint8_t* data, size_t len);
Digest HmacSha256(const Bytes& key, const Bytes& data);

/// Constant-time digest comparison (avoids early-exit timing leaks).
bool ConstantTimeEquals(const Digest& a, const Digest& b);

}  // namespace transedge::crypto

#endif  // TRANSEDGE_CRYPTO_HMAC_H_
