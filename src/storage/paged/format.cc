#include "storage/paged/format.h"

#include <array>

namespace transedge::storage::paged {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320. Table 0 is
/// the bytewise table; table k advances a byte's CRC over k more zero
/// bytes, so eight table lookups fold in eight input bytes at once.
CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

/// Four bytes as a little-endian word, whatever the host's byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed) {
  static const CrcTables kT = BuildCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = c ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^
        kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^
        kT[2][(hi >> 8) & 0xFF] ^ kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = kT[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace transedge::storage::paged
