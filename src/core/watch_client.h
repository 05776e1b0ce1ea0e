#ifndef TRANSEDGE_CORE_WATCH_CLIENT_H_
#define TRANSEDGE_CORE_WATCH_CLIENT_H_

#include <map>
#include <optional>
#include <vector>

#include "core/config.h"
#include "crypto/signer.h"
#include "sim/environment.h"
#include "storage/partition_map.h"
#include "wire/message.h"

namespace transedge::core {

/// Client side of the watch/subscription push tier: registers one key
/// range on every partition's leader and maintains an edge cache
/// (`cache()`) of certified `(value, proof, batch_id)` entries, updated
/// by the pushed delta stream. Every seed and delta is verified exactly
/// like a round-1 read-only reply (certificate quorum + per-key Merkle
/// proof against the certified root) before it touches the cache, so the
/// cache never holds a value the cluster did not certify.
///
/// Every watch message that carries state is a delta, and a subscribe is
/// answered by one: it names the last verified batch (kNoBatch for none)
/// and the answer chains on it, so a fresh watch is seeded
/// (`prev_batch_id == kNoBatch`) and a resume gets only what changed.
///
/// Stream integrity is client-enforced:
///   - each delta must chain on the last verified batch (`prev_batch_id`
///     equals it); the answer to a resume with nothing new may repeat
///     that batch with no entries. A discontinuity counts as a gap and
///     triggers a resume from the last verified position;
///   - other deltas at or below the last verified batch are dropped as
///     duplicates (cache already reflects them);
///   - a partition's stream is served by the replica whose delta the
///     client accepted last, whatever the view since. While a subscribe
///     is in flight, the next link from any replica is its answer; once
///     the stream is live, a push from any other replica is dropped;
///   - a push the client does not want (after Unwatch, for a replaced
///     watch id, or from another replica once the stream is live) is
///     answered with a WatchUnsubscribe, so every stale watch stops;
///   - an explicit WatchResubscribeRequired, or sustained silence from
///     the serving replica (crash, partition), rotates the view hint and
///     resumes from the last verified batch.
class WatchClient : public sim::Actor {
 public:
  /// One certified cache entry: the value (or certified absence) as of
  /// `batch_id`, which carried the proof that admitted it.
  struct CachedRead {
    bool found = false;
    Value value;
    BatchId version = kNoBatch;
    BatchId batch_id = kNoBatch;
  };

  struct Stats {
    uint64_t seeds_applied = 0;
    uint64_t deltas_applied = 0;
    uint64_t keys_updated = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t gaps_detected = 0;
    uint64_t stale_stream_dropped = 0;  // Pushed by a non-serving replica.
    uint64_t resubscribes = 0;
    uint64_t verification_failures = 0;
  };

  WatchClient(const SystemConfig& config, crypto::NodeId id,
              sim::Environment* env, const crypto::Verifier* verifier);

  void OnStart() override {}
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override;

  /// Subscribes to `[lo, hi]` on every partition's leader. One range per
  /// client; calling again replaces the previous range.
  void Watch(Key lo, Key hi);

  /// Unsubscribes from every serving replica and stops the
  /// idle-resubscribe timers. The cache is kept (it stays valid as-of its
  /// batch ids, just no longer maintained).
  void Unwatch();

  /// True once every partition's subscription is live.
  bool AllSubscribed() const;

  crypto::NodeId id() const { return id_; }
  const Stats& stats() const { return stats_; }
  const std::map<Key, CachedRead>& cache() const { return cache_; }

 private:
  /// Per-partition subscription state.
  struct Sub {
    uint64_t watch_id = 0;
    std::optional<sim::ActorId> server;  // Sent the last accepted delta.
    BatchId last_seen = kNoBatch;  // Chain position (verified).
    bool active = false;         // No subscribe in flight: answer landed.
    uint64_t timer_epoch = 0;    // Invalidates stale idle-timer closures.
  };

  void Subscribe(PartitionId p, BatchId resume_from);
  void Unsubscribe(sim::ActorId replica, uint64_t watch_id);
  void HandleDelta(sim::ActorId from, const wire::WatchDeltaMsg& msg);
  void HandleResubscribeRequired(const wire::WatchResubscribeRequired& msg);

  /// Certificate + per-key proof verification, mirroring the round-1
  /// read-only check (§4.2) minus the ro-segment digest (watch payloads
  /// carry no CD vector). Fails unless every entry lies in `[lo_, hi_]`
  /// and is owned by `partition`. It proves what the payload carries,
  /// not that the payload carries every in-range write of the batch.
  Status VerifyCertifiedEntries(
      PartitionId partition, BatchId batch_id,
      const std::vector<wire::AuthenticatedRead>& entries,
      const storage::BatchCertificate& certificate) const;

  void ApplyEntries(BatchId batch_id,
                    const std::vector<wire::AuthenticatedRead>& entries);

  /// Arms (or re-arms) the silence detector for partition `p`: if no
  /// watch traffic arrives within client_timeout, resubscribe — to the
  /// same leader first, rotating the view hint once that too stays
  /// silent.
  void ArmIdleTimer(PartitionId p);

  crypto::NodeId LeaderOf(PartitionId p) const {
    return config_.LeaderOf(p, view_hint_[p]);
  }

  SystemConfig config_;
  crypto::NodeId id_;
  sim::Environment* env_;
  const crypto::Verifier* verifier_;
  storage::PartitionMap partition_map_;
  std::vector<uint64_t> view_hint_;

  bool watching_ = false;
  Key lo_;
  Key hi_;
  std::vector<Sub> subs_;  // Indexed by partition.
  std::map<Key, CachedRead> cache_;
  uint64_t next_watch_id_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_WATCH_CLIENT_H_
