#ifndef TRANSEDGE_STORAGE_PAGED_PAGED_BACKEND_H_
#define TRANSEDGE_STORAGE_PAGED_PAGED_BACKEND_H_

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "storage/paged/page_file.h"
#include "storage/paged/sim_disk.h"
#include "storage/paged/wal_file.h"
#include "storage/partition_map.h"
#include "storage/smr_log.h"
#include "storage/storage_backend.h"

namespace transedge::storage::paged {

/// Iterates every write the replica applied for `batch`, in apply order:
/// local transactions first, then committed distributed transactions
/// resolved through `log` (the commit record names the batch whose
/// prepared segment holds the transaction). This is the storage-layer
/// mirror of the node's apply loop — the backend re-derives write sets
/// from its own log so checkpoint dirtying and recovery replay need no
/// upcall. Fails when a commit record references a truncated batch.
Status ForEachAppliedWrite(
    const SmrLog& log, const Batch& batch, const PartitionMap& pmap,
    PartitionId self,
    const std::function<void(const Key&, const Value&)>& fn);

/// Durable engine: WAL on decide, bucket-paged copy-on-write checkpoint
/// on apply cadence, ping-pong meta flip, recovery = best meta + chain
/// loads + WAL replay (entries beyond the checkpoint re-apply their
/// writes). See ARCHITECTURE.md §Storage backends for the format.
class PagedBackend : public StorageBackend {
 public:
  PagedBackend(const StorageTuning& tuning, SimDisk* disk);

  StorageKind kind() const override { return StorageKind::kPaged; }
  VersionedStore& store() override { return store_; }
  const VersionedStore& store() const override { return store_; }
  SmrLog& log() override { return log_; }
  const SmrLog& log() const override { return log_; }

  /// Persists the preloaded state as checkpoint generation 0 (the
  /// pre-sim handoff, so it is excluded from the I/O meter: stats are
  /// zeroed afterwards).
  void Preload(const VersionedStore& store,
               const crypto::Digest& root) override;

  void OnDecided() override;
  void OnApplied(BatchId last_applied, const crypto::Digest& root) override;
  void TruncateHistory(BatchId horizon) override;
  Result<RecoveredState> Recover(const RecoverOptions& opts) override;
  const StorageIoStats& io_stats() const override { return stats_; }

  /// Bucket of a key: FNV-1a over the key bytes mod num_buckets. Part of
  /// the on-disk contract (recovery loads buckets wholesale, so the
  /// mapping itself never needs to be stored).
  static uint32_t BucketOf(const Key& key, uint32_t num_buckets);

  /// Forces a checkpoint now (tests and orderly shutdown).
  Status Checkpoint();

  uint64_t checkpoint_generation() const { return generation_; }

 private:
  Status DoCheckpoint(BatchId last_applied, const crypto::Digest& root);

  StorageTuning tuning_;
  SimDisk* disk_;
  StorageIoStats stats_;
  PageFile pages_;
  WalFile wal_;
  VersionedStore store_;
  SmrLog log_;
  PartitionMap pmap_;

  // Mirror of the durable checkpoint, updated on every meta flip.
  uint64_t generation_ = 0;
  BatchId checkpoint_applied_ = kNoBatch;
  crypto::Digest checkpoint_root_;
  std::vector<uint32_t> bucket_heads_;
  std::vector<std::vector<uint32_t>> bucket_pages_;

  std::set<uint32_t> dirty_buckets_;
  std::map<BatchId, uint64_t> wal_offset_of_;  // lsn -> record start.
  uint64_t applies_since_checkpoint_ = 0;
  crypto::Digest last_applied_root_;
  BatchId last_applied_ = kNoBatch;
};

}  // namespace transedge::storage::paged

#endif  // TRANSEDGE_STORAGE_PAGED_PAGED_BACKEND_H_
