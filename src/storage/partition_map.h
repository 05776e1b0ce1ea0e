#ifndef TRANSEDGE_STORAGE_PARTITION_MAP_H_
#define TRANSEDGE_STORAGE_PARTITION_MAP_H_

#include <vector>

#include "crypto/sha256.h"
#include "txn/types.h"

namespace transedge::storage {

/// Hash-partitions the key space across `num_partitions` clusters
/// (§5.1: "Keys are uniformly distributed across the clusters using
/// hashing"). Clients and replicas share the same map, so ownership is a
/// pure function of the key.
class PartitionMap {
 public:
  explicit PartitionMap(uint32_t num_partitions)
      : num_partitions_(num_partitions) {}

  PartitionId OwnerOf(const Key& key) const;
  /// The same, from the key's SHA-256.
  PartitionId OwnerOf(const crypto::Digest& key_digest) const;

  uint32_t num_partitions() const { return num_partitions_; }

  /// The distinct partitions touched by `txn`'s read and write sets,
  /// ascending.
  std::vector<PartitionId> ParticipantsOf(
      const std::vector<ReadOp>& read_set,
      const std::vector<WriteOp>& write_set) const;

 private:
  uint32_t num_partitions_;
};

}  // namespace transedge::storage

#endif  // TRANSEDGE_STORAGE_PARTITION_MAP_H_
