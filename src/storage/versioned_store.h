#ifndef TRANSEDGE_STORAGE_VERSIONED_STORE_H_
#define TRANSEDGE_STORAGE_VERSIONED_STORE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "txn/types.h"

namespace transedge::storage {

/// A value together with the batch id (version) at which it was written.
struct VersionedValue {
  Value value;
  BatchId version = kNoBatch;

  bool operator==(const VersionedValue&) const = default;
};

/// Multi-version key-value store backing one partition replica.
///
/// Every write is tagged with the id of the batch that applied it; the
/// version history is retained so that the second round of the
/// distributed read-only protocol can serve "the state as of batch i"
/// (§4.3.4), and so OCC validation can compare observed versions against
/// the latest committed ones (Definition 3.1, rule 1).
///
/// The chains live in one hashed table, so `Put`, `Get`, `GetAsOf` and
/// `LatestVersion` cost one hash probe. The table's order is never
/// visible: `ForEachLatest` sorts what it visits. A chain keeps its
/// latest version in its table slot and only older ones in a separate
/// buffer, so a key with one version costs one allocation, and reads at
/// or above the latest version touch no second buffer.
class VersionedStore {
 public:
  VersionedStore() = default;

  /// Writes `value` at `version`. Versions for one key must be applied
  /// in non-decreasing order (batches are applied in log order).
  void Put(const Key& key, Value value, BatchId version);

  /// Latest version of `key`.
  Result<VersionedValue> Get(const Key& key) const;

  /// Latest version of `key` with version <= `as_of`. NotFound when the
  /// key did not exist at that point.
  Result<VersionedValue> GetAsOf(const Key& key, BatchId as_of) const;

  /// Version of the latest write to `key`; kNoBatch when absent.
  BatchId LatestVersion(const Key& key) const;

  /// Drops versions strictly older than the latest one with
  /// version <= `horizon`, bounding history growth. Returns the number
  /// of versions dropped. Chains with one version are skipped.
  size_t TruncateHistory(BatchId horizon);

  using LatestFn = std::function<void(const Key&, const Value&, BatchId)>;
  using KeyFilter = std::function<bool(const Key&)>;

  /// Visits the latest version of every key `select` accepts (every key
  /// when `select` is empty), in sorted key order, so the traversal is
  /// canonical across replicas. One pass over the table, then a sort of
  /// the selected keys only. The references passed to `fn` point into
  /// the store. Used by durable backends to checkpoint dirty buckets, by
  /// recovery to rebuild the Merkle tree and by the answer to a watch
  /// subscribe, over its range.
  void ForEachLatest(const LatestFn& fn, const KeyFilter& select = {}) const;

  size_t key_count() const { return chains_.size(); }
  size_t total_versions() const { return total_versions_; }

 private:
  struct Chain {
    VersionedValue latest;
    /// Sorted by version ascending, all below `latest.version`.
    /// `TruncateHistory` frees the buffer once it empties.
    std::vector<VersionedValue> older;
  };
  std::unordered_map<Key, Chain> chains_;
  size_t total_versions_ = 0;
};

}  // namespace transedge::storage

#endif  // TRANSEDGE_STORAGE_VERSIONED_STORE_H_
