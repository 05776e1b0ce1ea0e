#ifndef TRANSEDGE_CRYPTO_SHA256_H_
#define TRANSEDGE_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace transedge::crypto {

/// A 32-byte SHA-256 digest. Used for batch digests, Merkle nodes, and
/// message authentication throughout the system.
struct Digest {
  std::array<uint8_t, 32> bytes{};

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.bytes);
  }

  bool operator==(const Digest& other) const { return bytes == other.bytes; }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  bool operator<(const Digest& other) const { return bytes < other.bytes; }

  /// True when every byte is zero (the default-constructed sentinel).
  bool IsZero() const;

  /// Lower-case hex rendering (64 chars).
  std::string ToHex() const;

  /// First 8 hex chars, for compact log lines.
  std::string ShortHex() const;
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch and verified
/// against the NIST test vectors in crypto_test.cc. Blocks are compressed
/// with the x86 SHA extensions when the CPU has them, else with portable
/// C++; both give the same digests (ARCHITECTURE.md, "Hashing fast path").
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& b) { Update(b.data(), b.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without Reset().
  Digest Finish();

  /// Restores the initial state.
  void Reset();

  /// One-shot convenience.
  static Digest Hash(const uint8_t* data, size_t len);
  static Digest Hash(const Bytes& b) { return Hash(b.data(), b.size()); }
  static Digest Hash(std::string_view s) {
    return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Hash of the concatenation of two digests; the Merkle tree combiner.
/// Compresses the two blocks of a 64-byte message directly.
Digest HashPair(const Digest& left, const Digest& right);

}  // namespace transedge::crypto

#endif  // TRANSEDGE_CRYPTO_SHA256_H_
