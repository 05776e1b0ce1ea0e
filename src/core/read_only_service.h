#ifndef TRANSEDGE_CORE_READ_ONLY_SERVICE_H_
#define TRANSEDGE_CORE_READ_ONLY_SERVICE_H_

#include <vector>

#include "core/node_context.h"
#include "wire/message.h"

namespace transedge::core {

/// Server side of the paper's read-only protocol (§4.2–4.4): round-1
/// serving from the latest certified batch, round-2 (historical) serving
/// from the earliest batch whose LCE satisfies the client's dependency,
/// parking of round-2 requests whose dependency has not committed yet,
/// and plain single-key client reads.
/// Every replica serves from the log it applies whatever its view, so a
/// view change touches nothing here: a parked request waits on its
/// replica for a batch that satisfies it.
class ReadOnlyService {
 public:
  struct Stats {
    uint64_t ro_round1_served = 0;
    uint64_t ro_round2_served = 0;
    uint64_t ro_round2_parked = 0;
    /// Round-2 requests answered unserviceable because the dependency
    /// lies beyond any batch this cluster could have certified.
    uint64_t ro_round2_rejected = 0;
    /// Parked round-2 requests flushed with a retryable reply because
    /// history truncation passed them before any batch satisfied them.
    uint64_t ro_round2_aborted = 0;
  };

  explicit ReadOnlyService(NodeContext* ctx);

  /// Single-key read while a client assembles a read-write transaction.
  void HandleClientRead(sim::ActorId from, const wire::ClientReadRequest& msg);

  void HandleRoRequest(sim::ActorId from, const wire::RoRequest& msg);
  void HandleRoBatchRequest(sim::ActorId from, const wire::RoBatchRequest& msg);

  /// Re-examines parked round-2 requests after the log advanced.
  void ServeParkedRequests();

  /// History truncated up to `horizon`: a request parked before the
  /// entire retained window rotated past it has waited snapshot_history
  /// batches without its dependency committing — no honest dependency
  /// does that (round-1 dependencies sit near the log head). Flush it
  /// with a retryable reply instead of leaking it.
  void OnHistoryTruncated(BatchId horizon);

  const Stats& stats() const { return stats_; }

 private:
  /// The one read-only answer: charges serving `keys` plus the reply
  /// signature, then sends `client` the certified reply at `batch_id`,
  /// or an unserviceable one when that batch lies below the history
  /// horizon (kNoBatch included).
  void ServeAt(sim::ActorId client, uint64_t request_id,
               const std::vector<Key>& keys, BatchId batch_id,
               bool second_round);
  /// "No certified state can serve this" reply (batch_id == kNoBatch).
  wire::RoReply UnserviceableReply(uint64_t request_id) const;
  /// Earliest batch whose LCE satisfies `min_lce`; kNoBatch when none.
  BatchId FindBatchWithLce(BatchId min_lce) const;

  NodeContext* ctx_;

  // Parked second-round read-only requests (waiting for an LCE).
  struct ParkedRo {
    sim::ActorId client = 0;
    wire::RoBatchRequest request;
    /// Log tail when the request parked; OnHistoryTruncated bounds the
    /// wait against the retained window with it.
    BatchId parked_tail = kNoBatch;
  };
  std::vector<ParkedRo> parked_ro_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_READ_ONLY_SERVICE_H_
