#ifndef TRANSEDGE_STORAGE_PAGED_WAL_FILE_H_
#define TRANSEDGE_STORAGE_PAGED_WAL_FILE_H_

#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/paged/format.h"
#include "storage/paged/sim_disk.h"
#include "storage/storage_backend.h"

namespace transedge::storage::paged {

/// Append-only write-ahead log with group commit and torn-write
/// detection. Records are `WalRecordHeader + payload`; the file is never
/// physically truncated — `MetaSlot::wal_start_offset` retires the
/// prefix a checkpoint superseded.
class WalFile {
 public:
  WalFile(SimDisk* disk, uint32_t group_commit, StorageIoStats* stats);

  /// One record decoded by Replay.
  struct ReplayRecord {
    uint64_t lsn = 0;
    Bytes payload;
    uint64_t start_offset = 0;
  };

  /// Appends one kLogEntry record and syncs every `group_commit`
  /// appends. Returns the record's start offset.
  uint64_t Append(uint64_t lsn, const Bytes& payload);

  /// Forces the group-commit barrier now; a no-op when every append is
  /// already synced.
  void Sync();

  /// Scans records from `from` to the end of the durable image. A
  /// corrupt record at the tail (torn final append) ends the scan
  /// benignly; a corrupt record *followed by a valid one* is a hole in
  /// the middle of the log and fails with Corruption ("WAL gap").
  /// Positions the append offset at the end of the last valid record.
  Result<std::vector<ReplayRecord>> Replay(uint64_t from);

  uint64_t end_offset() const { return end_; }

 private:
  SimDisk* disk_;
  uint32_t group_commit_;
  StorageIoStats* stats_;
  uint64_t end_ = 0;
  uint32_t pending_appends_ = 0;
};

}  // namespace transedge::storage::paged

#endif  // TRANSEDGE_STORAGE_PAGED_WAL_FILE_H_
