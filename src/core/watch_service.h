#ifndef TRANSEDGE_CORE_WATCH_SERVICE_H_
#define TRANSEDGE_CORE_WATCH_SERVICE_H_

#include <deque>
#include <vector>

#include "core/node_context.h"
#include "wire/message.h"

namespace transedge::core {

/// Server side of the watch/subscription push tier: clients register
/// key-range watches on the leader, and every applied batch pushes the
/// in-range writes as a delta annotated with the batch certificate and
/// per-key Merkle proofs against the certified root — the commit-free
/// certified read, inverted from pull to push, so N watchers of a hot
/// range cost one proof construction per batch instead of N round-1
/// polls.
///
/// Staleness is explicit, never silent:
///   - every delta names the previous batch pushed to that watch
///     (`prev_batch_id`), so a watcher detects a lost delta by chain
///     discontinuity without trusting the server;
///   - a view change bumps the watch epoch and flushes every watch with
///     a retryable WatchResubscribeRequired (the demoted replica's
///     stream dies loudly, watchers rotate to the new leader);
///   - a resume below the retained replay window (TruncateHistory moved
///     past it) is rejected with the same retryable error instead of
///     being seeded with a gap.
class WatchService {
 public:
  struct Stats {
    /// Fresh subscriptions seeded with a certified snapshot.
    uint64_t watch_subscribes = 0;
    /// Resumed subscriptions (missed deltas replayed from the window).
    uint64_t watch_resumes = 0;
    /// WatchResubscribeRequired replies sent (view-change flushes and
    /// out-of-window resumes).
    uint64_t watch_resubscribe_errors = 0;
    uint64_t watch_deltas_pushed = 0;
    uint64_t watch_keys_pushed = 0;
  };

  explicit WatchService(NodeContext* ctx);

  void HandleSubscribe(sim::ActorId from, const wire::WatchSubscribeRequest&);
  void HandleUnsubscribe(sim::ActorId from, const wire::WatchUnsubscribe&);

  /// Apply-path hook (next to the other engines' OnBatchApplied):
  /// records the batch's write keys for resume replay and pushes one
  /// delta per watch whose range the batch touched. `written` is the
  /// batch's applied write set restricted to this partition, sorted and
  /// deduplicated by the node.
  void OnBatchApplied(const storage::LogEntry& logged,
                      const std::vector<Key>& written);

  /// View adoption: watches are leader-local, so the stream this replica
  /// was serving is dead. Bump the epoch and flush every watch with a
  /// retryable resubscribe error.
  void OnViewChange();

  size_t active_watches() const { return watches_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Watch {
    uint64_t watch_id = 0;
    sim::ActorId client = 0;
    Key lo;
    Key hi;
    /// Last batch id this watch was brought current through (the seed's
    /// batch id, then the id of each pushed delta); the next delta's
    /// `prev_batch_id`.
    BatchId last_sent = kNoBatch;
  };

  bool InRange(const Watch& w, const Key& key) const {
    return key >= w.lo && key <= w.hi;
  }

  /// Oldest batch id a resume can chain from: everything in
  /// (`floor`, last_applied] is replayable from `recent_writes_`.
  BatchId ReplayFloor() const;

  /// Certified (value, proof) entries for `keys` as of `batch_id`,
  /// provable against that batch's certificate root.
  std::vector<wire::AuthenticatedRead> BuildEntries(
      BatchId batch_id, const std::vector<Key>& keys);

  /// Sends the delta for `watch` at applied batch `batch_id` — `entries`
  /// built once for the watch's range, `certificate` the batch's — and
  /// advances the watch's chain position.
  void PushDelta(Watch& watch, BatchId batch_id,
                 const std::vector<wire::AuthenticatedRead>& entries,
                 const storage::BatchCertificate& certificate);

  void SendResubscribeRequired(sim::ActorId client, uint64_t watch_id);

  NodeContext* ctx_;
  uint64_t epoch_ = 1;
  std::vector<Watch> watches_;
  /// Write keys of each applied batch, in batch order, trimmed to the
  /// snapshot window — the resume replay source. Covers the contiguous
  /// id range (ReplayFloor(), last_applied].
  std::deque<std::pair<BatchId, std::vector<Key>>> recent_writes_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_WATCH_SERVICE_H_
