#ifndef TRANSEDGE_STORAGE_SMR_LOG_H_
#define TRANSEDGE_STORAGE_SMR_LOG_H_

#include <vector>

#include "common/result.h"
#include "storage/batch.h"

namespace transedge::storage {

/// One decided entry of the replicated log: the batch plus the f+1
/// signature certificate produced by consensus.
struct LogEntry {
  Batch batch;
  BatchCertificate certificate;
};

/// The per-partition state-machine-replication log (§3.1): an append-only
/// sequence of certified batches, written one-by-one by the leader.
///
/// The log holds a contiguous *suffix* of history: entries below
/// `FirstBatchId()` have been truncated against the snapshot horizon
/// (they are still reflected in the store and the Merkle tree, just no
/// longer individually retrievable). A freshly constructed log starts at
/// base 0 with full history.
class SmrLog {
 public:
  SmrLog() = default;

  /// Appends the next batch. Fails unless `entry.batch.id` is exactly
  /// the next index (batches are written one-by-one, §3.1).
  Status Append(LogEntry entry);

  /// The batch with id `id`. NotFound below `FirstBatchId()` (truncated)
  /// and above `LastBatchId()`.
  Result<const LogEntry*> Get(BatchId id) const;

  /// Id of the oldest retained batch (== the next expected id when the
  /// log is empty).
  BatchId FirstBatchId() const { return base_; }

  /// Id of the most recently written batch; kNoBatch when nothing was
  /// ever appended, `base_ - 1` when everything retained was truncated.
  BatchId LastBatchId() const {
    return base_ + static_cast<BatchId>(entries_.size()) - 1;
  }

  /// Drops retained entries with id < `horizon`. A horizon at or below
  /// `FirstBatchId()` is a no-op; one beyond `LastBatchId()` clamps (the
  /// log never truncates entries it does not hold). Returns the number
  /// of entries dropped.
  size_t TruncateTo(BatchId horizon);

  /// Re-bases an *empty* log so the next append expects `base` — used by
  /// recovery to seed the log at the durable checkpoint's horizon.
  Status SetBase(BatchId base);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const LogEntry& back() const { return entries_.back(); }

 private:
  std::vector<LogEntry> entries_;
  BatchId base_ = 0;  // Id of entries_[0].
};

}  // namespace transedge::storage

#endif  // TRANSEDGE_STORAGE_SMR_LOG_H_
