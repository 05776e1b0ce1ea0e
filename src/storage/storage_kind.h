#ifndef TRANSEDGE_STORAGE_STORAGE_KIND_H_
#define TRANSEDGE_STORAGE_STORAGE_KIND_H_

#include <cstdint>

namespace transedge::storage {

/// Which storage engine backs a replica's `VersionedStore`/`SmrLog` —
/// same playbook as `core::ConsensusKind`: every engine exposes the same
/// seam (`StorageBackend`), the default is bit-identical to the
/// pre-seam behavior, and `SystemConfig::storage_kind` selects.
enum class StorageKind : uint8_t {
  /// Everything lives in memory; restart loses all state. Charges no
  /// simulated I/O time — byte-for-byte identical to the pre-seam code.
  kInMemory,
  /// Page-oriented checksummed file layout plus a write-ahead log on a
  /// deterministic simulated disk: decided batches append to the WAL
  /// (group commit), applied state checkpoints into CRC'd bucket pages,
  /// and a restarted replica recovers checkpoint + WAL replay.
  kPaged,
};

/// Durability knobs of the paged backend (ignored by the in-memory one).
/// These are the tuning axes bench_durability sweeps.
struct StorageTuning {
  /// On-disk page size in bytes; bucket payloads chain across pages.
  uint32_t page_size = 4096;

  /// Number of key buckets the checkpointed store is hashed over. Each
  /// bucket serializes into its own page chain, so this bounds the
  /// write amplification of a checkpoint to the dirty buckets.
  uint32_t num_buckets = 128;

  /// WAL appends per fsync barrier (group commit). 1 syncs every decided
  /// batch onto the decision critical path; larger values amortize the
  /// fsync across a group at the cost of a longer torn tail after a
  /// crash.
  uint32_t wal_group_commit = 1;

  /// Applied batches between checkpoints (dirty-bucket flush + meta
  /// flip). Bounds both recovery replay length and WAL growth.
  uint32_t checkpoint_interval = 64;

  /// Partition count of the deployment and this replica's partition;
  /// the backend needs them to re-derive a batch's local write set
  /// (checkpoint dirtying, recovery replay). Set by the node, not knobs.
  uint32_t num_partitions = 1;
  uint32_t partition = 0;
};

}  // namespace transedge::storage

#endif  // TRANSEDGE_STORAGE_STORAGE_KIND_H_
