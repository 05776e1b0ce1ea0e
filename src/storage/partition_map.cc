#include "storage/partition_map.h"

#include <set>

namespace transedge::storage {

PartitionId PartitionMap::OwnerOf(const Key& key) const {
  return OwnerOf(crypto::Sha256::Hash(key));
}

PartitionId PartitionMap::OwnerOf(const crypto::Digest& key_digest) const {
  const crypto::Digest& d = key_digest;
  // Use the last 4 bytes so partition choice is independent from the
  // Merkle leaf index (which uses the first 4).
  uint32_t h = (static_cast<uint32_t>(d.bytes[28]) << 24) |
               (static_cast<uint32_t>(d.bytes[29]) << 16) |
               (static_cast<uint32_t>(d.bytes[30]) << 8) |
               static_cast<uint32_t>(d.bytes[31]);
  return h % num_partitions_;
}

std::vector<PartitionId> PartitionMap::ParticipantsOf(
    const std::vector<ReadOp>& read_set,
    const std::vector<WriteOp>& write_set) const {
  std::set<PartitionId> parts;
  for (const ReadOp& r : read_set) parts.insert(OwnerOf(r.key));
  for (const WriteOp& w : write_set) parts.insert(OwnerOf(w.key));
  return std::vector<PartitionId>(parts.begin(), parts.end());
}

}  // namespace transedge::storage
