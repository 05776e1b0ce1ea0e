#include "crypto/hmac.h"

#include <cstring>

namespace transedge::crypto {

HmacKey::HmacKey(const Bytes& key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize];
  std::memset(key_block, 0, kBlockSize);

  if (key.size() > kBlockSize) {
    Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.bytes.data(), kd.bytes.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(ipad, kBlockSize);
  outer_.Update(opad, kBlockSize);
}

Digest HmacKey::Mac(const uint8_t* data, size_t len) const {
  Sha256 inner = inner_;
  inner.Update(data, len);
  Digest inner_digest = inner.Finish();

  Sha256 outer = outer_;
  outer.Update(inner_digest.bytes.data(), inner_digest.bytes.size());
  return outer.Finish();
}

Digest HmacSha256(const Bytes& key, const uint8_t* data, size_t len) {
  return HmacKey(key).Mac(data, len);
}

Digest HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacSha256(key, data.data(), data.size());
}

bool ConstantTimeEquals(const Digest& a, const Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.bytes.size(); ++i) {
    diff |= static_cast<uint8_t>(a.bytes[i] ^ b.bytes[i]);
  }
  return diff == 0;
}

}  // namespace transedge::crypto
