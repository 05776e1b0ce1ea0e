#ifndef TRANSEDGE_TXN_TYPES_H_
#define TRANSEDGE_TXN_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace transedge {

/// Database key. The paper uses 4-byte keys; we allow arbitrary strings.
using Key = std::string;

/// Database value (the paper uses 256-byte payloads).
using Value = Bytes;

/// Index of a data partition == index of the cluster that owns it.
using PartitionId = uint32_t;

/// Position of a batch in a partition's SMR log. -1 means "none yet".
using BatchId = int64_t;
inline constexpr BatchId kNoBatch = -1;

/// Globally unique transaction id: (client id << 32) | client sequence.
using TxnId = uint64_t;

inline TxnId MakeTxnId(uint32_t client_id, uint32_t seq) {
  return (static_cast<TxnId>(client_id) << 32) | seq;
}
inline uint32_t TxnClient(TxnId id) { return static_cast<uint32_t>(id >> 32); }
inline uint32_t TxnSeq(TxnId id) { return static_cast<uint32_t>(id); }

/// One entry of a transaction's read set: the key, the value observed,
/// and the version it was read at. The version is the LCE of the batch
/// the value came from (§3.2: "Responses to clients must include the LCE
/// of the batch which the key was read from"); OCC validation compares it
/// against the current committed version.
struct ReadOp {
  Key key;
  int64_t version = -1;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.key, self.version);
  }
  bool operator==(const ReadOp&) const = default;
};

/// One entry of a transaction's write set (buffered at the client until
/// commit time).
struct WriteOp {
  Key key;
  Value value;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.key, self.value);
  }
  bool operator==(const WriteOp&) const = default;
};

/// A read-write transaction as submitted for commitment: the read set
/// with observed versions plus the buffered write set (§2 Interface).
struct Transaction {
  TxnId id = 0;
  std::vector<ReadOp> read_set;
  std::vector<WriteOp> write_set;

  /// Partitions this transaction touches, ascending, no duplicates.
  /// Size 1 => local transaction; otherwise distributed (§3.1).
  std::vector<PartitionId> participants;

  /// Coordinator cluster chosen by the client (§3.3.1). Only meaningful
  /// for distributed transactions.
  PartitionId coordinator = 0;

  bool IsLocal() const { return participants.size() <= 1; }

  /// The read and write operations that belong to partition `p` under
  /// `owner_of(key) == p` semantics are extracted by the node; the full
  /// sets travel with the transaction as in the paper's commit request.
  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.id, self.read_set, self.write_set, self.participants,
      self.coordinator);
  }

  bool operator==(const Transaction&) const = default;
};

/// True when the write sets (or a read set vs. a write set) of `a` and
/// `b` intersect — the rw/wr/ww conflict test of §3.6 restricted to the
/// keys owned by one partition when `partition_keys_only` is used by the
/// caller.
bool Conflicts(const Transaction& a, const Transaction& b);

}  // namespace transedge

#endif  // TRANSEDGE_TXN_TYPES_H_
