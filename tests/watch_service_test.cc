// Watch/subscription push-tier tests: certified seed + delta streams,
// the edge cache, streams that stay on the replica that registered them
// across a view change, subscribes answered by one delta read from the
// store (before the first applied batch, and past the history window),
// and the configurable stale-snapshot clamp of the read path.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "wire/message.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::ConsensusKind;
using core::RoResult;
using core::RwResult;
using core::System;
using core::SystemConfig;
using core::WatchClient;

SystemConfig WatchConfig(ConsensusKind consensus) {
  SystemConfig config;
  config.num_partitions = 1;
  config.f = 1;  // 4 replicas.
  config.consensus_kind = consensus;
  config.batch_interval = sim::Millis(5);
  config.view_change_timeout = sim::Millis(80);
  config.merkle_depth = 8;
  // Doubles as the watch client's silence detector; keep recovery from
  // a dead stream fast.
  config.client_timeout = sim::Millis(100);
  return config;
}

std::vector<std::pair<Key, Value>> TestData(uint32_t partitions) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = 100;
  wopts.value_size = 8;
  return workload::KeySpace(wopts, partitions).InitialData();
}

/// Repeatedly writes `value_prefix || i` to `key` until `*stop` is set;
/// counts commits in `*committed`. The returned owner must outlive the
/// run — scheduled callbacks hold a raw pointer into it.
std::shared_ptr<std::function<void()>> StartWriteLoop(
    System* system, Client* writer, Key key, const std::string& value_prefix,
    int* committed, const bool* stop) {
  auto write_loop = std::make_shared<std::function<void()>>();
  auto* write_fn = write_loop.get();
  *write_loop = [=] {
    if (*stop) return;
    writer->ExecuteReadWrite(
        {}, {WriteOp{key, ToBytes(value_prefix + std::to_string(*committed))}},
        [=](RwResult r) {
          if (r.committed) ++*committed;
          (*write_fn)();
        });
  };
  system->env().Schedule(sim::Millis(30), *write_loop);
  return write_loop;
}

/// The watcher's cache must agree with the (certified) store of
/// `replica` for every key in `[lo, hi]` — same values, and no extra
/// cached keys the store does not have. Pass a replica that is known to
/// be fully caught up (a stable leader, or any continuously-live node
/// after traffic has quiesced).
void ExpectCacheMatchesReplica(const core::TransEdgeNode* replica,
                               WatchClient* watcher, const Key& lo,
                               const Key& hi) {
  const storage::VersionedStore& store = replica->store();
  size_t in_range = 0;
  store.ForEachLatest([&](const Key& k, const Value& v, BatchId version) {
    if (k < lo || k > hi) return;
    ++in_range;
    auto it = watcher->cache().find(k);
    ASSERT_NE(it, watcher->cache().end()) << "missing cached key " << k;
    EXPECT_EQ(it->second.value, v) << "stale cache for " << k;
    EXPECT_EQ(it->second.version, version) << "stale version for " << k;
  });
  EXPECT_EQ(watcher->cache().size(), in_range);
}

class WatchEngineTest : public ::testing::TestWithParam<ConsensusKind> {};

TEST_P(WatchEngineTest, SeedAndDeltasMaintainCertifiedCache) {
  SystemConfig config = WatchConfig(GetParam());
  System system(config, {/*seed=*/21});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  const Key lo = "k";  // The whole generated keyspace.
  const Key hi = "k~";
  Key hot = data[0].first;

  int committed = 0;
  bool stop = false;
  auto loop = StartWriteLoop(&system, writer, hot, "v", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });
  system.env().RunUntil(sim::Seconds(2));
  stop = true;
  system.env().RunUntil(sim::Seconds(3));

  ASSERT_GT(committed, 20);
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_GE(stats.seeds_applied, 1u);
  EXPECT_GT(stats.deltas_applied, 10u);
  // Every applied seed/delta passed certificate + Merkle verification.
  EXPECT_EQ(stats.verification_failures, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.gaps_detected, 0u);
  ExpectCacheMatchesReplica(system.leader(0), watcher, lo, hi);

  // Server side: one live watch, pushing deltas.
  EXPECT_EQ(system.leader(0)->active_watches(), 1u);
  EXPECT_GT(system.leader(0)->stats().watch_deltas_pushed, 10u);

  // Unsubscribe deregisters server-side.
  watcher->Unwatch();
  system.env().RunUntil(system.env().now() + sim::Millis(100));
  EXPECT_EQ(system.leader(0)->active_watches(), 0u);
}

TEST_P(WatchEngineTest, WatcherSurvivesLeaderCrashWithoutGapOrDuplicate) {
  SystemConfig config = WatchConfig(GetParam());
  config.storage_kind = storage::StorageKind::kPaged;
  config.durability.checkpoint_interval = 8;
  System system(config, {/*seed=*/22});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  Key hot = data[0].first;
  const Key lo = "k";
  const Key hi = "k~";

  int committed = 0;
  bool stop = false;
  auto loop = StartWriteLoop(&system, writer, hot, "w", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });

  // Crash the leader mid-stream; the cluster elects a successor and the
  // watcher's silence detector walks the subscription over to it.
  crypto::NodeId leader_id = system.leader(0)->id();
  system.env().Schedule(sim::Millis(400),
                        [&, leader_id] { system.CrashReplica(leader_id); });
  system.env().Schedule(sim::Seconds(2), [&, leader_id] {
    ASSERT_TRUE(system.RestartReplica(leader_id).ok());
  });
  system.env().RunUntil(sim::Seconds(4));
  stop = true;
  system.env().RunUntil(sim::Seconds(5));

  ASSERT_GT(committed, 30);
  const WatchClient::Stats& stats = watcher->stats();
  // The stream moved leaders at least once.
  EXPECT_GE(stats.resubscribes, 1u);
  // ...but never applied a duplicate, never left a gap unrecovered, and
  // never accepted an unverifiable delta.
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.verification_failures, 0u);
  // Compare against a replica that never went down: the restarted
  // ex-leader still believes in its pre-crash view and may lag behind
  // the cluster tip until traffic forces it to catch up.
  ExpectCacheMatchesReplica(system.node(0, 1), watcher, lo, hi);
}

// A watch lives on the replica that registered it. Here its leader turns
// equivocator, so the cluster votes it out, but it keeps running: as a
// follower it applies the same certified log and keeps pushing the watch,
// and the watcher never has to resubscribe.
TEST_P(WatchEngineTest, StreamSurvivesAViewChangeOfItsServingReplica) {
  SystemConfig config = WatchConfig(GetParam());
  config.f = 2;  // 7 replicas: a half-split equivocation certifies nothing.
  // The view change silences the range for longer than the default
  // silence detector waits.
  config.client_timeout = sim::Seconds(1);
  System system(config, {/*seed=*/25});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  const Key lo = "k";
  const Key hi = "k~";
  core::TransEdgeNode* serving = system.leader(0);

  int committed = 0;
  bool stop = false;
  auto loop =
      StartWriteLoop(&system, writer, data[0].first, "e", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });
  system.env().Schedule(sim::Millis(500), [&] {
    ASSERT_TRUE(watcher->AllSubscribed());
    serving->SetByzantineBehavior(core::ByzantineBehavior::kEquivocate);
  });
  // Deltas sent to the watcher after their sender left view 0, by sender.
  std::map<sim::ActorId, int> pushed_after_view_change;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId to, const sim::MessagePtr& msg) {
        if (to == watcher->id() && serving->view() > 0 &&
            static_cast<wire::MessageType>(msg->type()) ==
                wire::MessageType::kWatchDelta) {
          ++pushed_after_view_change[from];
        }
        return true;
      });
  system.env().RunUntil(sim::Seconds(3));
  stop = true;
  // Long enough for the last write to apply everywhere, too short for
  // the silence detector to fire on the quiet range.
  system.env().RunUntil(sim::Millis(3500));

  ASSERT_GT(committed, 30);
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_GT(system.node(0, i)->view(), 0u) << "replica " << i;
  }
  EXPECT_FALSE(serving->IsLeader());
  EXPECT_EQ(serving->active_watches(), 1u);
  EXPECT_EQ(pushed_after_view_change.size(), 1u);
  EXPECT_GT(pushed_after_view_change[serving->id()], 10);
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_EQ(stats.seeds_applied, 1u);
  EXPECT_EQ(stats.resubscribes, 0u);
  EXPECT_EQ(stats.gaps_detected, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.stale_stream_dropped, 0u);
  EXPECT_EQ(stats.verification_failures, 0u);
  ExpectCacheMatchesReplica(system.leader(0), watcher, lo, hi);
}

// Only the replica whose seed or resume the watcher accepted serves its
// stream. A genuine delta re-sent by another replica of the partition is
// dropped before it touches the chain, and that replica is told to stop.
TEST_P(WatchEngineTest, PushFromAnotherReplicaIsDroppedAndUnsubscribed) {
  SystemConfig config = WatchConfig(GetParam());
  System system(config, {/*seed=*/28});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  const Key lo = "k";
  const Key hi = "k~";
  const sim::ActorId serving = system.leader(0)->id();
  const sim::ActorId other = config.ReplicaNode(0, 1);

  int committed = 0;
  bool stop = false;
  auto loop =
      StartWriteLoop(&system, writer, data[0].first, "r", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });

  sim::Network& net = system.env().network();
  std::shared_ptr<const wire::WatchDeltaMsg> resent;
  std::vector<uint64_t> unsubscribed_at_other;
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    const auto type = static_cast<wire::MessageType>(msg->type());
    if (type == wire::MessageType::kWatchUnsubscribe && to == other) {
      unsubscribed_at_other.push_back(
          static_cast<const wire::WatchUnsubscribe&>(*msg).watch_id);
    }
    if (resent == nullptr && type == wire::MessageType::kWatchDelta &&
        from == serving && watcher->AllSubscribed()) {
      resent = std::static_pointer_cast<const wire::WatchDeltaMsg>(msg);
      system.env().Schedule(0, [&net, other, to, msg] {
        net.Send(other, to, msg);
      });
    }
    return true;
  });
  system.env().RunUntil(sim::Seconds(2));
  stop = true;
  system.env().RunUntil(sim::Seconds(3));

  ASSERT_NE(resent, nullptr);
  ASSERT_GT(committed, 20);
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_EQ(stats.stale_stream_dropped, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.gaps_detected, 0u);
  EXPECT_EQ(stats.verification_failures, 0u);
  EXPECT_GT(stats.deltas_applied, 10u);
  EXPECT_EQ(unsubscribed_at_other,
            std::vector<uint64_t>{resent->watch_id});
  ExpectCacheMatchesReplica(system.leader(0), watcher, lo, hi);
}

// A resume moves the stream to the leader that replaced a crashed one,
// and that replica's live push overtakes its answer. While its subscribe
// is in flight the watcher does not unsubscribe the sender, which is
// about to serve the stream: the stream keeps going as soon as the
// answer lands, not a silence timeout later.
TEST_P(WatchEngineTest, ResumeAnswerOvertakenByAPushKeepsStreaming) {
  SystemConfig config = WatchConfig(GetParam());
  // A stalled stream then waits half a second before the silence
  // detector resubscribes.
  config.client_timeout = sim::Millis(500);
  System system(config, {/*seed=*/22});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  const Key lo = "k";
  const Key hi = "k~";
  const sim::ActorId crashed = system.leader(0)->id();

  int committed = 0;
  bool stop = false;
  auto loop =
      StartWriteLoop(&system, writer, data[0].first, "o", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });
  system.env().Schedule(sim::Millis(400),
                        [&] { system.CrashReplica(crashed); });

  // Holds the answer to the first resume that reaches a new replica until
  // that replica has pushed the watcher another delta, then delivers it
  // 5 ms later.
  sim::Network& net = system.env().network();
  sim::MessagePtr held;
  sim::ActorId successor = 0;
  bool released = false;
  int unsubscribed_at_successor = 0;
  uint64_t applied_at_answer = 0;
  uint64_t applied_soon_after = 0;
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    const auto type = static_cast<wire::MessageType>(msg->type());
    if (type == wire::MessageType::kWatchUnsubscribe && to == successor) {
      ++unsubscribed_at_successor;
    }
    if (to != watcher->id() || released ||
        type != wire::MessageType::kWatchDelta) {
      return true;
    }
    if (held == nullptr && from != crashed) {
      held = msg;
      successor = from;
      return false;
    }
    if (held != nullptr && from == successor) {
      released = true;
      system.env().Schedule(sim::Millis(5), [&] {
        net.Send(successor, watcher->id(), held);
        applied_at_answer = watcher->stats().deltas_applied;
        // Well inside the 500 ms silence timeout.
        system.env().Schedule(sim::Millis(200), [&] {
          applied_soon_after = watcher->stats().deltas_applied;
        });
      });
    }
    return true;
  });
  system.env().RunUntil(sim::Seconds(4));
  stop = true;
  system.env().RunUntil(sim::Seconds(5));

  ASSERT_TRUE(released);
  ASSERT_GT(committed, 30);
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_EQ(unsubscribed_at_successor, 0);
  EXPECT_GT(applied_soon_after, applied_at_answer);
  EXPECT_EQ(stats.verification_failures, 0u);
  ExpectCacheMatchesReplica(system.leader(0), watcher, lo, hi);
}

// A watch whose unsubscribe is lost keeps pushing, and the watcher
// answers each unwanted push with another unsubscribe until it stops.
TEST_P(WatchEngineTest, UnwantedPushIsAnsweredWithAnUnsubscribe) {
  SystemConfig config = WatchConfig(GetParam());
  System system(config, {/*seed=*/23});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  int committed = 0;
  bool stop = false;
  auto loop =
      StartWriteLoop(&system, writer, data[0].first, "u", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch("k", "k~"); });
  system.env().Schedule(sim::Millis(500), [&] {
    ASSERT_TRUE(watcher->AllSubscribed());
    watcher->Unwatch();
  });

  int unsubscribes_lost = 0;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId, const sim::MessagePtr& msg) {
        if (from == watcher->id() && unsubscribes_lost == 0 &&
            static_cast<wire::MessageType>(msg->type()) ==
                wire::MessageType::kWatchUnsubscribe) {
          ++unsubscribes_lost;
          return false;
        }
        return true;
      });
  system.env().RunUntil(sim::Seconds(2));
  stop = true;
  system.env().RunUntil(sim::Seconds(3));

  ASSERT_EQ(unsubscribes_lost, 1);
  ASSERT_GT(committed, 20);
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->active_watches(), 0u) << "replica " << i;
  }
}

// The view-change timer that a follower arms when it forwards a watch
// subscribe is what replaces the dead leader of an idle partition: the
// watcher's rotation reaches only followers, which forward to that
// leader, and nothing is written that would demand progress otherwise.
TEST_P(WatchEngineTest, WatcherOfAnIdlePartitionOutlivesItsDeadLeader) {
  SystemConfig config = WatchConfig(GetParam());
  System system(config, {/*seed=*/29});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  WatchClient* watcher = system.AddWatchClient();
  const sim::ActorId crashed = config.ReplicaNode(0, 0);
  system.env().Schedule(sim::Millis(100),
                        [&] { system.CrashReplica(crashed); });
  system.env().Schedule(sim::Millis(200), [&] { watcher->Watch("k", "k~"); });
  system.env().RunUntil(sim::Seconds(10));

  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    EXPECT_GT(system.node(0, i)->view(), 0u) << "replica " << i;
  }
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_GE(stats.seeds_applied, 1u);
  EXPECT_EQ(stats.verification_failures, 0u);
  ExpectCacheMatchesReplica(system.node(0, 1), watcher, "k", "k~");
}

// A subscribe that reaches the leader before its first batch applies is
// not refused: the watch is registered, and that batch seeds it.
TEST_P(WatchEngineTest, SubscribeBeforeTheFirstAppliedBatchIsSeededByIt) {
  SystemConfig config = WatchConfig(GetParam());
  System system(config, {/*seed=*/31});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  const Key lo = "k";
  const Key hi = "k~";
  BatchId applied_at_subscribe = 0;
  system.env().Schedule(0, [&] {
    applied_at_subscribe = system.leader(0)->last_applied();
    watcher->Watch(lo, hi);
  });
  int committed = 0;
  bool stop = false;
  auto loop =
      StartWriteLoop(&system, writer, data[0].first, "g", &committed, &stop);
  system.env().RunUntil(sim::Millis(300));
  stop = true;
  system.env().RunUntil(sim::Millis(500));

  EXPECT_EQ(applied_at_subscribe, kNoBatch);
  ASSERT_GT(committed, 5);
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->stats().watch_resubscribe_errors, 0u)
        << "replica " << i;
  }
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_EQ(stats.seeds_applied, 1u);
  EXPECT_GT(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.verification_failures, 0u);
  EXPECT_EQ(stats.gaps_detected, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  ExpectCacheMatchesReplica(system.leader(0), watcher, lo, hi);
}

INSTANTIATE_TEST_SUITE_P(Engines, WatchEngineTest,
                         ::testing::Values(ConsensusKind::kPbft,
                                           ConsensusKind::kLinearVote));

// A resume is answered from the store, however long the watcher was
// away: past the history window it gets one delta carrying exactly the
// keys written while it was gone, and no second seed.
TEST(WatchServiceTest, ResumePastTheHistoryWindowCatchesUpInOneDelta) {
  SystemConfig config = WatchConfig(ConsensusKind::kPbft);
  config.snapshot_history = 48;  // About 240 ms of batches at 5 ms.
  System system(config, {/*seed=*/23});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  // `hot` is written throughout, `before` only until the watcher leaves
  // and `during` only while it is away.
  const Key hot = data[0].first;
  const Key before = data[1].first;
  const Key during = data[2].first;
  Client* writers[3] = {system.AddClient(), system.AddClient(),
                        system.AddClient()};
  WatchClient* watcher = system.AddWatchClient();
  const Key lo = "k";
  const Key hi = "k~";

  int committed[3] = {};
  bool stop = false;
  bool stop_before = false;
  bool stop_during = false;
  auto hot_loop =
      StartWriteLoop(&system, writers[0], hot, "t", &committed[0], &stop);
  auto before_loop = StartWriteLoop(&system, writers[1], before, "b",
                                    &committed[1], &stop_before);
  std::shared_ptr<std::function<void()>> during_loop;
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });
  system.env().Schedule(sim::Millis(250), [&] { stop_before = true; });

  // The last delta sent to the watcher before it left, and the deltas
  // sent after it came back that chain on it.
  sim::Network& net = system.env().network();
  bool away = false;
  BatchId last_before = kNoBatch;
  std::vector<std::shared_ptr<const wire::WatchDeltaMsg>> catch_up;
  net.SetLinkFilter(
      [&](sim::ActorId, sim::ActorId to, const sim::MessagePtr& msg) {
        if (to != watcher->id() ||
            static_cast<wire::MessageType>(msg->type()) !=
                wire::MessageType::kWatchDelta) {
          return true;
        }
        auto delta = std::static_pointer_cast<const wire::WatchDeltaMsg>(msg);
        if (!away) {
          last_before = delta->batch_id;
        } else if (delta->prev_batch_id == last_before) {
          catch_up.push_back(delta);
        }
        return true;
      });
  // Away far longer than the history window, then back.
  system.env().Schedule(sim::Millis(300), [&] {
    away = true;
    net.Disconnect(watcher->id());
  });
  system.env().Schedule(sim::Millis(370), [&] {
    during_loop = StartWriteLoop(&system, writers[2], during, "d",
                                 &committed[2], &stop_during);
  });
  system.env().Schedule(sim::Millis(1400), [&] { stop_during = true; });
  system.env().Schedule(sim::Millis(1500),
                        [&] { net.Reconnect(watcher->id()); });
  system.env().RunUntil(sim::Seconds(3));
  stop = true;
  system.env().RunUntil(sim::Seconds(4));

  ASSERT_GT(committed[0], 100);
  ASSERT_GT(committed[1], 5);
  ASSERT_GT(committed[2], 50);
  // The history window rotated past the resume point.
  ASSERT_GT(system.leader(0)->log().FirstBatchId(), last_before);
  ASSERT_FALSE(catch_up.empty());
  std::vector<Key> caught_up;
  for (const wire::AuthenticatedRead& read : catch_up.front()->body->entries) {
    caught_up.push_back(read.key);
  }
  EXPECT_EQ(caught_up, (std::vector<Key>{hot, during}));
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_EQ(stats.seeds_applied, 1u);
  EXPECT_GE(stats.resubscribes, 1u);
  EXPECT_EQ(stats.verification_failures, 0u);
  EXPECT_EQ(system.leader(0)->stats().watch_resubscribe_errors, 0u);
  ExpectCacheMatchesReplica(system.leader(0), watcher, lo, hi);
}

// ---------------------------------------------------------------------------
// Fan-out: one certified body per (range, batch), shared by its watchers.
// ---------------------------------------------------------------------------

/// The deltas one watcher was sent, by (partition, batch). Holding them
/// keeps every body alive, so no address is reused within a run.
using DeltaLog = std::map<std::pair<PartitionId, BatchId>,
                          std::shared_ptr<const wire::WatchDeltaMsg>>;

struct FanOutRun {
  /// Lower bound of the upper watcher's range `[upper_lo, "k~"]`.
  Key upper_lo;
  /// The two watchers of the whole key space, then the upper one.
  DeltaLog sent[3];
  WatchClient::Stats stats[3];
};

/// Two partitions, each writing one key in each half of the key space.
/// Two watchers watch the whole key space and a third its upper half.
FanOutRun RunFanOut() {
  SystemConfig config = WatchConfig(ConsensusKind::kPbft);
  config.num_partitions = 2;
  System system(config, {/*seed=*/27});
  auto data = TestData(2);
  system.Preload(data);
  system.Start();

  FanOutRun run;
  run.upper_lo = data[data.size() / 2].first;
  storage::PartitionMap pmap(2);
  std::vector<Key> hot;
  for (PartitionId p = 0; p < 2; ++p) {
    for (bool upper : {false, true}) {
      for (size_t i = 0; i < data.size(); ++i) {
        if (pmap.OwnerOf(data[i].first) == p &&
            (i >= data.size() / 2) == upper) {
          hot.push_back(data[i].first);
          break;
        }
      }
    }
  }
  EXPECT_EQ(hot.size(), 4u);
  bool stop = false;
  std::vector<int> committed(hot.size(), 0);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (size_t i = 0; i < hot.size(); ++i) {
    loops.push_back(StartWriteLoop(&system, system.AddClient(), hot[i], "f",
                                   &committed[i], &stop));
  }
  WatchClient* watchers[3] = {system.AddWatchClient(),
                              system.AddWatchClient(),
                              system.AddWatchClient()};
  system.env().Schedule(sim::Millis(60), [&] {
    watchers[0]->Watch("k", "k~");
    watchers[1]->Watch("k", "k~");
    watchers[2]->Watch(run.upper_lo, "k~");
  });
  system.env().network().SetLinkFilter(
      [&](sim::ActorId, sim::ActorId to, const sim::MessagePtr& msg) {
        if (static_cast<wire::MessageType>(msg->type()) !=
            wire::MessageType::kWatchDelta) {
          return true;
        }
        auto delta = std::static_pointer_cast<const wire::WatchDeltaMsg>(msg);
        // Only live pushes: a seed, and the answer to a resume with
        // nothing new, are built for one watcher.
        if (delta->prev_batch_id == kNoBatch || delta->body->entries.empty()) {
          return true;
        }
        for (int w = 0; w < 3; ++w) {
          if (to == watchers[w]->id()) {
            run.sent[w][{delta->partition, delta->batch_id}] = delta;
          }
        }
        return true;
      });
  system.env().RunUntil(sim::Seconds(2));
  stop = true;
  system.env().RunUntil(sim::Seconds(3));
  for (int w = 0; w < 3; ++w) run.stats[w] = watchers[w]->stats();
  for (int c : committed) EXPECT_GT(c, 20);
  return run;
}

TEST(WatchFanOutTest, WatchersOfOneRangeShareOneBodyPerBatch) {
  const FanOutRun run = RunFanOut();
  size_t shared = 0;
  std::set<PartitionId> partitions;
  for (const auto& [at, delta] : run.sent[0]) {
    auto other = run.sent[1].find(at);
    if (other == run.sent[1].end()) continue;
    // One body, two headers.
    EXPECT_EQ(delta->body.get(), other->second->body.get())
        << "partition " << at.first << " batch " << at.second;
    EXPECT_NE(delta->watch_id, other->second->watch_id);
    EXPECT_FALSE(delta->body->entries.empty());
    ++shared;
    partitions.insert(at.first);
  }
  EXPECT_GT(shared, 20u);
  EXPECT_EQ(partitions.size(), 2u);
  for (const WatchClient::Stats& stats : run.stats) {
    EXPECT_GT(stats.deltas_applied, 10u);
    EXPECT_EQ(stats.verification_failures, 0u);
    EXPECT_EQ(stats.gaps_detected, 0u);
  }
}

TEST(WatchFanOutTest, AnotherRangeGetsItsOwnBodyOfItsOwnKeys) {
  const FanOutRun run = RunFanOut();
  size_t compared = 0;
  size_t narrower = 0;
  for (const auto& [at, delta] : run.sent[2]) {
    for (const wire::AuthenticatedRead& read : delta->body->entries) {
      EXPECT_GE(read.key, run.upper_lo) << "batch " << at.second;
    }
    auto whole = run.sent[0].find(at);
    if (whole == run.sent[0].end()) continue;
    EXPECT_NE(delta->body.get(), whole->second->body.get())
        << "partition " << at.first << " batch " << at.second;
    ++compared;
    if (whole->second->body->entries.size() > delta->body->entries.size()) {
      ++narrower;
    }
  }
  EXPECT_GT(compared, 20u);
  // The whole-range body held lower-half keys the upper range lacks.
  EXPECT_GT(narrower, 0u);
  EXPECT_EQ(run.stats[2].verification_failures, 0u);
}

// Watchers of one range that subscribe before the first applied batch are
// seeded by that batch with one shared body, as a live push would be.
TEST(WatchFanOutTest, WatchersSubscribedBeforeTheFirstBatchShareOneSeed) {
  SystemConfig config = WatchConfig(ConsensusKind::kPbft);
  System system(config, {/*seed=*/31});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  WatchClient* watchers[3] = {system.AddWatchClient(),
                              system.AddWatchClient(),
                              system.AddWatchClient()};
  std::vector<std::shared_ptr<const wire::WatchDeltaMsg>> seeds;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId, sim::ActorId, const sim::MessagePtr& msg) {
        if (static_cast<wire::MessageType>(msg->type()) ==
            wire::MessageType::kWatchDelta) {
          auto delta =
              std::static_pointer_cast<const wire::WatchDeltaMsg>(msg);
          if (delta->prev_batch_id == kNoBatch) seeds.push_back(delta);
        }
        return true;
      });
  system.env().Schedule(0, [&] {
    for (WatchClient* watcher : watchers) watcher->Watch("k", "k~");
  });
  system.env().RunUntil(sim::Millis(300));

  ASSERT_EQ(seeds.size(), 3u);
  for (const auto& seed : seeds) {
    EXPECT_EQ(seed->batch_id, seeds[0]->batch_id);
    EXPECT_EQ(seed->body.get(), seeds[0]->body.get());
  }
  EXPECT_EQ(seeds[0]->body->entries.size(), data.size());
  for (WatchClient* watcher : watchers) {
    EXPECT_EQ(watcher->stats().seeds_applied, 1u);
    EXPECT_EQ(watcher->stats().verification_failures, 0u);
    ExpectCacheMatchesReplica(system.leader(0), watcher, "k", "k~");
  }
}

// ---------------------------------------------------------------------------
// Satellite regressions: read-path correctness fixes.
// ---------------------------------------------------------------------------

// The stale-snapshot fault clamp must derive its lag from the configured
// snapshot window. With a window much smaller than the historical
// hardcoded 64-batch lag, the stale-but-certified reply must still come
// from retained history and verify.
TEST(WatchServiceTest, StaleSnapshotClampRespectsSmallRetentionWindow) {
  SystemConfig config = WatchConfig(ConsensusKind::kPbft);
  config.snapshot_history = 16;  // Far below the 64-batch standard lag.
  config.client_timeout = sim::Seconds(2);
  System system(config, {/*seed=*/24});
  auto data = TestData(1);
  system.Preload(data);
  system.Start();

  Client* writer = system.AddClient();
  Client* reader = system.AddClient();
  Key hot = data[0].first;

  int committed = 0;
  bool stop = false;
  auto loop = StartWriteLoop(&system, writer, hot, "s", &committed, &stop);
  system.env().RunUntil(sim::Seconds(2));
  stop = true;
  system.env().RunUntil(sim::Seconds(3));
  ASSERT_GT(committed, 80);

  system.leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kStaleSnapshot);
  std::optional<RoResult> ro;
  reader->ExecuteReadOnly({hot}, [&](RoResult r) { ro = std::move(r); });
  system.env().RunUntil(system.env().now() + sim::Seconds(2));

  ASSERT_TRUE(ro.has_value());
  // Old but certified (§4.4.2): the reply verifies; a clamp below the
  // retained window would instead bounce between unserviceable retries.
  EXPECT_TRUE(ro->status.ok()) << ro->status;
  ASSERT_EQ(ro->values.count(hot), 1u);
  EXPECT_TRUE(ro->values[hot].has_value());
}

// ---------------------------------------------------------------------------
// Entry ownership: a delta speaks only for its sender's watched keys.
// ---------------------------------------------------------------------------

// Every key has a valid proof in a partition's tree: an absence proof if
// the partition does not hold it, a value proof if it does, watched or
// not. So a certified delta may carry entries its sender has no say
// over, and only the watcher's own range and ownership check stops them.
enum class ForeignEntry {
  /// Partition 1 claims the absence of partition 0's watched key.
  kOtherPartitionsAbsence,
  /// Partition 0 pushes the value of one of its keys outside the range.
  kOutOfRangeKey,
};

class WatchEntryOwnershipTest
    : public ::testing::TestWithParam<ForeignEntry> {};

TEST_P(WatchEntryOwnershipTest, DeltaWithForeignEntryIsRejected) {
  SystemConfig config = WatchConfig(ConsensusKind::kPbft);
  config.num_partitions = 2;
  System system(config, {/*seed=*/26});
  auto data = TestData(2);
  system.Preload(data);
  system.Start();

  storage::PartitionMap pmap(2);
  auto first_key = [&](PartitionId p, bool in_upper_half) {
    for (size_t i = 0; i < data.size(); ++i) {
      if (pmap.OwnerOf(data[i].first) == p &&
          (i >= data.size() / 2) == in_upper_half) {
        return data[i].first;
      }
    }
    ADD_FAILURE() << "no key of partition " << p;
    return Key();
  };
  // The forged entry names `target`; `sender`'s leader pushes it on the
  // first delta for `written` after both seeds landed.
  const bool absence = GetParam() == ForeignEntry::kOtherPartitionsAbsence;
  const Key lo = absence ? Key("k") : data[data.size() / 2].first;
  const Key hi = "k~";
  const PartitionId sender = absence ? 1 : 0;
  const Key target = first_key(0, /*in_upper_half=*/absence);
  const Key written = first_key(sender, /*in_upper_half=*/true);

  Client* writer = system.AddClient();
  WatchClient* watcher = system.AddWatchClient();
  int committed = 0;
  bool stop = false;
  auto loop = StartWriteLoop(&system, writer, written, "o", &committed, &stop);
  system.env().Schedule(sim::Millis(60), [&] { watcher->Watch(lo, hi); });

  sim::Network& net = system.env().network();
  bool forged = false;
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    if (forged || to != watcher->id() || !watcher->AllSubscribed() ||
        static_cast<wire::MessageType>(msg->type()) !=
            wire::MessageType::kWatchDelta) {
      return true;
    }
    wire::WatchDeltaMsg delta = static_cast<const wire::WatchDeltaMsg&>(*msg);
    if (delta.partition != sender) return true;
    // Pushed while the sender applies this delta's batch, so its tree is
    // the certified post-state.
    const core::TransEdgeNode& leader =
        *system.node(sender, config.ReplicaIndexOf(from));
    wire::AuthenticatedRead entry;
    entry.key = target;
    auto value = leader.store().Get(target);
    if (value.ok()) {
      entry.found = true;
      entry.value = value->value;
      entry.version = value->version;
    }
    entry.proof = leader.tree().Prove(target).value();
    // The body is shared by every watcher of the range and immutable:
    // forge on a copy.
    auto body = std::make_shared<wire::WatchDeltaBody>(*delta.body);
    body->entries.push_back(std::move(entry));
    delta.body = std::move(body);
    forged = true;
    sim::MessagePtr forgery =
        std::make_shared<const wire::WatchDeltaMsg>(std::move(delta));
    system.env().Schedule(0, [&net, from, to, forgery] {
      net.Send(from, to, forgery);
    });
    return false;
  });
  system.env().RunUntil(sim::Seconds(2));
  stop = true;
  system.env().RunUntil(sim::Seconds(3));

  ASSERT_TRUE(forged);
  ASSERT_GT(committed, 20);
  const WatchClient::Stats& stats = watcher->stats();
  EXPECT_EQ(stats.verification_failures, 1u);
  // The forged entry touched nothing: partition 0's watched key keeps its
  // seeded value, and the unwatched key never enters the cache.
  if (absence) {
    auto cached = watcher->cache().find(target);
    ASSERT_NE(cached, watcher->cache().end()) << target << " was erased";
    EXPECT_EQ(cached->second.value,
              system.leader(0)->store().Get(target)->value);
  } else {
    EXPECT_EQ(watcher->cache().count(target), 0u) << target << " was cached";
  }
  // The rejected delta left the stream where it was, so the next one
  // showed a gap, and the answer to the resume carried the honest write.
  EXPECT_GE(stats.gaps_detected, 1u);
  auto hot = watcher->cache().find(written);
  ASSERT_NE(hot, watcher->cache().end()) << written << " was never cached";
  EXPECT_EQ(hot->second.value,
            system.leader(sender)->store().Get(written)->value);
}

INSTANTIATE_TEST_SUITE_P(
    Forgeries, WatchEntryOwnershipTest,
    ::testing::Values(ForeignEntry::kOtherPartitionsAbsence,
                      ForeignEntry::kOutOfRangeKey),
    [](const ::testing::TestParamInfo<ForeignEntry>& info) {
      return std::string(info.param == ForeignEntry::kOtherPartitionsAbsence
                             ? "OtherPartitionsAbsence"
                             : "OutOfRangeKey");
    });

}  // namespace
}  // namespace transedge
