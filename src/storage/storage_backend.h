#ifndef TRANSEDGE_STORAGE_STORAGE_BACKEND_H_
#define TRANSEDGE_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "storage/smr_log.h"
#include "storage/storage_kind.h"
#include "storage/versioned_store.h"

namespace transedge::storage {

namespace paged {
class SimDisk;
}  // namespace paged

/// Cumulative I/O counters a backend reports. The node charges simulated
/// time from the *deltas* between hook calls (WAL appends and syncs,
/// recovery reads; checkpoint page writes and syncs are counted but not
/// charged), so the backend itself stays a pure data structure with no
/// notion of time. The in-memory backend leaves every counter at zero —
/// zero counters, zero charges, bit-identical runs.
struct StorageIoStats {
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t pages_written = 0;
  uint64_t page_bytes_written = 0;
  uint64_t pages_read = 0;
  uint64_t file_syncs = 0;  // Page-file sync barriers (checkpoint flush).
  uint64_t checkpoints = 0;
  uint64_t wal_records_replayed = 0;  // Recovery only.
};

/// Certificate checking during recovery. With a null verifier the replay
/// trusts the on-disk CRCs alone (unit tests); a restarted replica passes
/// its cluster's verifier so a tampered-but-recrc'd log entry cannot
/// resurrect.
struct RecoverOptions {
  const crypto::Verifier* verifier = nullptr;
  std::vector<crypto::NodeId> member_ids;
  size_t required_signatures = 0;
};

/// What `Recover` re-established. `checkpoint_applied`/`checkpoint_root`
/// describe the durable checkpoint the store was loaded from. The log
/// runs to the durable WAL tail (possibly *ahead* of the crashed
/// replica's applied watermark, never behind the checkpoint); the caller
/// puts the writes of the entries beyond `checkpoint_applied`.
struct RecoveredState {
  BatchId checkpoint_applied = kNoBatch;
  crypto::Digest checkpoint_root;
};

/// The seam under the replica's storage stack. The node owns exactly one
/// backend and reaches the store/log only through it. Every store write
/// enters through `Put`, and the durability hooks are called where the
/// node changes its state, so an engine persists without the node
/// knowing how and without deriving a batch's writes itself.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual StorageKind kind() const = 0;

  virtual const VersionedStore& store() const = 0;
  /// The one way a decided write enters the store (the node's install
  /// step). Durable engines note the key for their next checkpoint.
  virtual void Put(const Key& key, const Value& value, BatchId version) = 0;
  virtual SmrLog& log() = 0;
  virtual const SmrLog& log() const = 0;

  /// Installs the pre-replicated initial state (before the sim starts).
  /// `root` is the Merkle root over that state; durable engines persist
  /// both as checkpoint generation 0.
  virtual void Preload(const VersionedStore& store,
                       const crypto::Digest& root) = 0;

  /// Called once per decided batch, right after the node installed it:
  /// its writes went through `Put` and `log().back()` holds it. Durable
  /// engines append the entry to the WAL (fsync per the group-commit
  /// tuning; the decision-critical-path durability cost) and, every
  /// `checkpoint_interval` batches, checkpoint at its certified root
  /// (WAL sync, copy-on-write page flush, meta flip).
  virtual void OnDecided() {}

  /// The one authoritative history horizon (the node passes its snapshot
  /// base): key versions strictly older than the latest one at or below
  /// `horizon` are dropped AND log entries below `horizon` become
  /// unavailable, under every engine. Catch-up and the read-only
  /// out-of-window rejection are bounded by the same number.
  virtual void TruncateHistory(BatchId horizon) = 0;

  /// Loads the durable checkpoint into the store and rebuilds the log
  /// from the WAL; the caller `Put`s the writes of the entries beyond
  /// the checkpoint. Only meaningful on a freshly constructed backend.
  virtual Result<RecoveredState> Recover(const RecoverOptions& opts) = 0;

  virtual const StorageIoStats& io_stats() const = 0;
};

/// The default engine: exactly the structures the node used to own.
class InMemoryBackend : public StorageBackend {
 public:
  InMemoryBackend() = default;

  StorageKind kind() const override { return StorageKind::kInMemory; }
  const VersionedStore& store() const override { return store_; }
  void Put(const Key& key, const Value& value, BatchId version) override {
    store_.Put(key, value, version);
  }
  SmrLog& log() override { return log_; }
  const SmrLog& log() const override { return log_; }

  void Preload(const VersionedStore& store,
               const crypto::Digest& root) override;
  void TruncateHistory(BatchId horizon) override;
  Result<RecoveredState> Recover(const RecoverOptions& opts) override;
  const StorageIoStats& io_stats() const override { return stats_; }

 private:
  VersionedStore store_;
  SmrLog log_;
  StorageIoStats stats_;  // Always zero: no I/O, no simulated time.
};

/// Factory, `MakeConsensus`-style. `disk` is borrowed and must outlive
/// the backend; it is ignored (may be null) for the in-memory engine and
/// required for the paged one.
std::unique_ptr<StorageBackend> MakeStorageBackend(StorageKind kind,
                                                   const StorageTuning& tuning,
                                                   paged::SimDisk* disk);

}  // namespace transedge::storage

#endif  // TRANSEDGE_STORAGE_STORAGE_BACKEND_H_
