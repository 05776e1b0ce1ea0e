#ifndef TRANSEDGE_STORAGE_PAGED_FORMAT_H_
#define TRANSEDGE_STORAGE_PAGED_FORMAT_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "crypto/sha256.h"
#include "txn/types.h"

namespace transedge::storage::paged {

/// On-disk format of the paged backend, version 1.
///
/// Page file layout (`kPagesFileId`):
///   page 0, page 1   ping-pong MetaSlot copies (slot = generation % 2)
///   page 2..         data pages, each a PageHeader + payload; bucket
///                    payloads (a `std::vector<BucketRecord>`) chain
///                    across pages via `next_page`
///
/// WAL layout (`kWalFileId`): a flat sequence of
/// `WalRecordHeader + payload` records; `MetaSlot::wal_start_offset`
/// logically truncates the prefix superseded by the checkpoint.
///
/// Each struct's `Fields` list is its on-disk layout (common/codec.h);
/// `Reserved` entries are zero padding that keeps the headers at their
/// fixed sizes.

inline constexpr uint32_t kPageMagic = 0x47504554;  // "TEPG"
inline constexpr uint32_t kMetaMagic = 0x544D4554;  // "TEMT"
inline constexpr uint32_t kWalMagic = 0x4C574554;   // "TEWL"
inline constexpr uint16_t kFormatVersion = 1;

/// Page id 0 holds meta, so 0 doubles as the null chain terminator.
inline constexpr uint32_t kNoPage = 0;
inline constexpr uint32_t kFirstDataPage = 2;

inline constexpr size_t kPageHeaderSize = 32;
inline constexpr size_t kWalRecordHeaderSize = 24;

/// CRC-32 (reflected, polynomial 0xEDB88320). `seed` chains incremental
/// updates: Crc32(b, Crc32(a)) == Crc32(a+b).
uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed = 0);
inline uint32_t Crc32(const Bytes& b, uint32_t seed = 0) {
  return Crc32(b.data(), b.size(), seed);
}

/// Header of every data page. `crc` covers the serialized header with
/// the crc field zeroed, chained over the payload bytes.
struct PageHeader {
  uint32_t magic = kPageMagic;
  uint16_t version = kFormatVersion;
  uint32_t page_id = kNoPage;
  uint64_t lsn = 0;  // Batch id (+1) that wrote the page, for debugging.
  uint32_t payload_len = 0;
  uint32_t next_page = kNoPage;  // Chain link; kNoPage terminates.
  uint32_t crc = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.magic, self.version, Reserved<uint16_t>{}, self.page_id, self.lsn,
      self.payload_len, self.next_page, self.crc);
  }
  bool operator==(const PageHeader&) const = default;
};

/// Checkpoint manifest, written to page `generation % 2` after every
/// checkpoint (ping-pong: a torn meta write leaves the previous slot
/// intact; recovery picks the valid slot with the highest generation).
/// `crc` covers the serialized slot with the crc field zeroed.
struct MetaSlot {
  uint32_t magic = kMetaMagic;
  uint16_t version = kFormatVersion;
  uint64_t generation = 0;
  uint32_t page_size = 0;
  uint32_t num_buckets = 0;
  uint32_t num_pages = 0;  // Allocation frontier; free pages re-derived.
  BatchId last_applied = kNoBatch;  // Batch the checkpoint covers.
  crypto::Digest root;              // Merkle root at last_applied.
  BatchId log_start = 0;            // Snapshot horizon: first retained id.
  uint64_t wal_start_offset = 0;    // WAL bytes below this are dead.
  std::vector<uint32_t> bucket_heads;  // Chain head per bucket; kNoPage=empty.
  uint32_t crc = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.magic, self.version, self.generation, self.page_size,
      self.num_buckets, self.num_pages, self.last_applied, self.root,
      self.log_start, self.wal_start_offset, self.bucket_heads, self.crc);
  }
  bool operator==(const MetaSlot&) const = default;
};

/// One key of a checkpointed bucket: its latest value and the batch that
/// wrote it. A bucket's payload lists its keys in sorted order, so the
/// format is canonical across replicas.
struct BucketRecord {
  Key key;
  Value value;
  BatchId version = kNoBatch;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.key, self.value, self.version);
  }
};

enum class WalRecordType : uint8_t {
  kLogEntry = 1,  // Payload: serialized LogEntry (batch + certificate).
};

/// Header of every WAL record. `crc` covers the serialized header with
/// the crc field zeroed, chained over the payload bytes — a torn append
/// fails the crc and replay stops at the record before it.
struct WalRecordHeader {
  uint32_t magic = kWalMagic;
  uint8_t type = 0;
  uint64_t lsn = 0;  // Batch id of the entry.
  uint32_t payload_len = 0;
  uint32_t crc = 0;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.magic, self.type, Reserved<uint8_t>{}, Reserved<uint16_t>{},
      self.lsn, self.payload_len, self.crc);
  }
  bool operator==(const WalRecordHeader&) const = default;
};

}  // namespace transedge::storage::paged

#endif  // TRANSEDGE_STORAGE_PAGED_FORMAT_H_
