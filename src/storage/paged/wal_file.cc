#include "storage/paged/wal_file.h"

#include <algorithm>

namespace transedge::storage::paged {

namespace {

uint32_t RecordCrc(WalRecordHeader header, const uint8_t* payload,
                   size_t len) {
  header.crc = 0;
  Encoder enc;
  Encode(header, &enc);
  return Crc32(payload, len, Crc32(enc.buffer()));
}

/// Decodes the record starting at `off` inside `buf`. Returns false when
/// the bytes there do not form a complete, CRC-valid record.
bool DecodeRecordAt(const Bytes& buf, size_t off, WalRecordHeader* header,
                    size_t* payload_off) {
  if (off + kWalRecordHeaderSize > buf.size()) return false;
  Decoder dec(buf.data() + off, kWalRecordHeaderSize);
  Result<WalRecordHeader> h = Decode<WalRecordHeader>(&dec);
  if (!h.ok()) return false;
  if (h.value().magic != kWalMagic ||
      h.value().type != static_cast<uint8_t>(WalRecordType::kLogEntry)) {
    return false;
  }
  size_t pstart = off + kWalRecordHeaderSize;
  if (pstart + h.value().payload_len > buf.size()) return false;
  if (h.value().crc !=
      RecordCrc(h.value(), buf.data() + pstart, h.value().payload_len)) {
    return false;
  }
  *header = h.value();
  *payload_off = pstart;
  return true;
}

/// True when any complete valid record starts in `buf` at or after
/// `from` — distinguishes a benign torn tail from a mid-log hole.
bool AnyValidRecordAfter(const Bytes& buf, size_t from) {
  if (buf.size() < kWalRecordHeaderSize) return false;
  for (size_t p = from; p + kWalRecordHeaderSize <= buf.size(); ++p) {
    WalRecordHeader h;
    size_t payload_off = 0;
    if (DecodeRecordAt(buf, p, &h, &payload_off)) return true;
  }
  return false;
}

}  // namespace

WalFile::WalFile(SimDisk* disk, uint32_t group_commit, StorageIoStats* stats)
    : disk_(disk),
      group_commit_(group_commit == 0 ? 1 : group_commit),
      stats_(stats) {}

uint64_t WalFile::Append(uint64_t lsn, const Bytes& payload) {
  WalRecordHeader h;
  h.type = static_cast<uint8_t>(WalRecordType::kLogEntry);
  h.lsn = lsn;
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.crc = RecordCrc(h, payload.data(), payload.size());
  Encoder enc;
  Encode(h, &enc);
  Bytes buf = enc.Take();
  buf.insert(buf.end(), payload.begin(), payload.end());
  uint64_t start = end_;
  // One disk op per record: header and payload tear together.
  disk_->WriteAt(kWalFileId, start, buf);
  end_ += buf.size();
  ++stats_->wal_appends;
  stats_->wal_bytes += buf.size();
  if (++pending_appends_ >= group_commit_) Sync();
  return start;
}

void WalFile::Sync() {
  if (pending_appends_ == 0) return;  // Every append is already durable.
  disk_->Sync(kWalFileId);
  pending_appends_ = 0;
  ++stats_->wal_syncs;
}

Result<std::vector<WalFile::ReplayRecord>> WalFile::Replay(uint64_t from) {
  std::vector<ReplayRecord> records;
  uint64_t size = disk_->Size(kWalFileId);
  end_ = from;
  pending_appends_ = 0;
  if (from >= size) return records;
  // Pull the whole tail once; the scan is in-memory from here.
  Bytes buf = disk_->ReadAt(kWalFileId, from, size - from);
  size_t off = 0;
  while (off + kWalRecordHeaderSize <= buf.size()) {
    WalRecordHeader h;
    size_t payload_off = 0;
    if (!DecodeRecordAt(buf, off, &h, &payload_off)) {
      if (AnyValidRecordAfter(buf, off + 1)) {
        return Status::Corruption(
            "WAL gap: corrupt record at offset " +
            std::to_string(from + off) +
            " is followed by a valid one (hole in the log)");
      }
      break;  // Benign torn tail: the final append did not survive.
    }
    ReplayRecord rec;
    rec.lsn = h.lsn;
    rec.payload.assign(buf.begin() + static_cast<ptrdiff_t>(payload_off),
                       buf.begin() + static_cast<ptrdiff_t>(payload_off) +
                           h.payload_len);
    rec.start_offset = from + off;
    records.push_back(std::move(rec));
    off = payload_off + h.payload_len;
    end_ = from + off;
    ++stats_->wal_records_replayed;
  }
  return records;
}

}  // namespace transedge::storage::paged
