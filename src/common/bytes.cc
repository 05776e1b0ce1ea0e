#include "common/bytes.h"

namespace transedge {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

std::string HexEncode(const uint8_t* data, size_t len) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

namespace {
int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void Encoder::PutLittleEndian(uint64_t v, int nbytes) {
  uint8_t bytes[8];
  for (int i = 0; i < nbytes; ++i) {
    bytes[i] = static_cast<uint8_t>(v & 0xff);
    v >>= 8;
  }
  buf_.insert(buf_.end(), bytes, bytes + nbytes);
}

void Encoder::PutBytes(const Bytes& b) {
  PutU32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Encoder::PutRaw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Result<uint64_t> Decoder::GetLittleEndian(int nbytes) {
  if (remaining() < static_cast<size_t>(nbytes)) {
    return Status::Corruption("decode past end of buffer");
  }
  uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += nbytes;
  return v;
}

Result<uint8_t> Decoder::GetU8() {
  TE_ASSIGN_OR_RETURN(uint64_t v, GetLittleEndian(1));
  return static_cast<uint8_t>(v);
}

Result<uint16_t> Decoder::GetU16() {
  TE_ASSIGN_OR_RETURN(uint64_t v, GetLittleEndian(2));
  return static_cast<uint16_t>(v);
}

Result<uint32_t> Decoder::GetU32() {
  TE_ASSIGN_OR_RETURN(uint64_t v, GetLittleEndian(4));
  return static_cast<uint32_t>(v);
}

Result<uint64_t> Decoder::GetU64() { return GetLittleEndian(8); }

Result<uint32_t> Decoder::GetCount() {
  TE_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  if (count > remaining()) {
    return Status::Corruption("element count exceeds remaining bytes");
  }
  return count;
}

Result<int64_t> Decoder::GetI64() {
  TE_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<bool> Decoder::GetBool() {
  TE_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  return v != 0;
}

Result<Bytes> Decoder::GetBytes() {
  TE_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  return GetRaw(len);
}

Result<std::string> Decoder::GetString() {
  TE_ASSIGN_OR_RETURN(Bytes b, GetBytes());
  return ToString(b);
}

Status Decoder::GetRawInto(uint8_t* out, size_t len) {
  if (remaining() < len) {
    return Status::Corruption("decode past end of buffer");
  }
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return Status::OK();
}

Result<Bytes> Decoder::GetRaw(size_t len) {
  if (remaining() < len) {
    return Status::Corruption("decode past end of buffer");
  }
  Bytes out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

}  // namespace transedge
