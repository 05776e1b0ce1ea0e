#ifndef TRANSEDGE_CORE_WATCH_SERVICE_H_
#define TRANSEDGE_CORE_WATCH_SERVICE_H_

#include <memory>
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
/// polls. That construction is one immutable body per (range, batch),
/// shared by the N deltas, each of which adds only its own header.
///
/// A subscribe is the one way a watch is brought current. It names the
/// last batch the watcher verified (kNoBatch for none) and is answered
/// by one delta at the applied head that chains on that batch and
/// carries every in-range key whose version at the head is later, read
/// from the store: the seed of the whole range for a fresh watch, only
/// what changed for a resume, however long the watcher was away. No
/// history of written keys is kept for it.
///
/// A watch lives on the replica that registered it. Every replica
/// applies the same certified log whatever its view, so a view change
/// leaves the stream running; the watcher answers a push it no longer
/// wants with a WatchUnsubscribe.
///
/// Staleness is explicit, never silent: every delta names the batch it
/// chains on (`prev_batch_id`), so a watcher detects a lost delta by
/// chain discontinuity (an unsigned claim: it catches a lossy network,
/// not a leader that withholds writes) and resumes from its last
/// verified batch.
class WatchService {
 public:
  struct Stats {
    /// Subscribes answered with a seed of the whole range.
    uint64_t watch_subscribes = 0;
    /// Subscribes answered with what changed since the named batch.
    uint64_t watch_resumes = 0;
    /// WatchResubscribeRequired replies sent: resumes ahead of this
    /// replica's applied head, and heads with no log entry to certify an
    /// answer with.
    uint64_t watch_resubscribe_errors = 0;
    uint64_t watch_deltas_pushed = 0;
    uint64_t watch_keys_pushed = 0;
  };

  explicit WatchService(NodeContext* ctx);

  /// Replaces the client's watch of the range and answers it at the
  /// applied head. Before the first applied batch the watch is only
  /// registered: OnBatchApplied seeds it with that batch.
  void HandleSubscribe(sim::ActorId from, const wire::WatchSubscribeRequest&);
  void HandleUnsubscribe(sim::ActorId from, const wire::WatchUnsubscribe&);

  /// Apply-path hook (next to the other engines' OnBatchApplied): seeds
  /// the watches registered before the first applied batch, one body per
  /// range, then pushes one delta per other watch whose range the batch
  /// touched. `written`
  /// is the batch's applied write set restricted to this partition,
  /// sorted and deduplicated by the node.
  void OnBatchApplied(const storage::LogEntry& logged,
                      const std::vector<Key>& written);

  size_t active_watches() const { return watches_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Watch {
    uint64_t watch_id = 0;
    sim::ActorId client = 0;
    Key lo;
    Key hi;
    /// Last batch this watch was brought current through (the batch its
    /// subscribe was answered at, then each pushed delta's); the next
    /// delta's `prev_batch_id`. kNoBatch while the watch awaits its seed
    /// from the first applied batch.
    BatchId last_sent = kNoBatch;
  };

  bool InRange(const Watch& w, const Key& key) const {
    return key >= w.lo && key <= w.hi;
  }

  /// Every key in `watch`'s range whose version at applied batch `head`
  /// is later than `watch.last_sent`: one pass over the store.
  std::vector<Key> ChangedSince(const Watch& watch, BatchId head) const;

  /// Answers `watch`'s subscribe at applied batch `batch_id` with `body`,
  /// a delta chained on `watch.last_sent`. Each answer is charged serving
  /// the body's keys plus a signature, whether or not it shares the body.
  void Answer(Watch& watch, BatchId batch_id,
              std::shared_ptr<const wire::WatchDeltaBody> body);

  /// The certified delta body for `keys` of applied batch `batch_id`:
  /// their entries with proofs, and the batch's `certificate`.
  std::shared_ptr<const wire::WatchDeltaBody> BuildBody(
      BatchId batch_id, const std::vector<Key>& keys,
      const storage::BatchCertificate& certificate) const;

  /// Sends the delta for `watch` at applied batch `batch_id` — its own
  /// header around `body` — and advances the watch's chain position.
  void PushDelta(Watch& watch, BatchId batch_id,
                 std::shared_ptr<const wire::WatchDeltaBody> body);

  void SendResubscribeRequired(sim::ActorId client, uint64_t watch_id);

  NodeContext* ctx_;
  std::vector<Watch> watches_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_WATCH_SERVICE_H_
