#ifndef TRANSEDGE_COMMON_BYTES_H_
#define TRANSEDGE_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace transedge {

/// Owned byte string used throughout the wire layer.
using Bytes = std::vector<uint8_t>;

/// Converts a string to bytes (no copy avoidance; wire layer only).
Bytes ToBytes(std::string_view s);

/// Converts bytes to a std::string.
std::string ToString(const Bytes& b);

/// Lower-case hexadecimal rendering of `data`, for logs and test output.
std::string HexEncode(const uint8_t* data, size_t len);
std::string HexEncode(const Bytes& b);

/// Parses a hex string produced by HexEncode. Fails on odd length or
/// non-hex characters.
Result<Bytes> HexDecode(std::string_view hex);

/// Appends primitive values to a byte buffer in little-endian order.
///
/// The encoder is the single source of truth for the wire format: every
/// protocol message and every digest-input is produced through it, so
/// signatures and Merkle roots cover exactly the bytes that travel.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void PutBytes(const Bytes& b);
  void PutString(std::string_view s);

  /// Raw bytes without a length prefix (for fixed-size fields such as
  /// digests).
  void PutRaw(const uint8_t* data, size_t len);
  void PutRaw(const Bytes& b) { PutRaw(b.data(), b.size()); }

  /// Makes room for `n` more bytes, so the puts that follow allocate
  /// once.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const Bytes& buffer() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutLittleEndian(uint64_t v, int nbytes);

  Bytes buf_;
};

/// Reads primitive values from a byte buffer written by `Encoder`.
/// All getters are checked: reading past the end yields Corruption.
class Decoder {
 public:
  explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  /// Reads an element count and validates it against the bytes left:
  /// every encoded element occupies at least one byte, so a count larger
  /// than `remaining()` is corruption. Prevents attacker-controlled
  /// counts from driving huge allocations before the decode fails.
  Result<uint32_t> GetCount();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<bool> GetBool();
  Result<Bytes> GetBytes();
  Result<std::string> GetString();
  /// Reads exactly `len` raw bytes.
  Result<Bytes> GetRaw(size_t len);
  /// Reads exactly `len` raw bytes into `out` (fixed-size fields).
  Status GetRawInto(uint8_t* out, size_t len);

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  Result<uint64_t> GetLittleEndian(int nbytes);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace transedge

#endif  // TRANSEDGE_COMMON_BYTES_H_
