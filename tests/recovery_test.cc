// Crash-recovery scenario family: a replica of a live deployment is
// crash-stopped, its simulated disk suffers a configurable power-loss
// fault, and a successor recovers from checkpoint + WAL and rejoins the
// cluster, also while two-cluster transactions it prepared are pending
// or commit late. Also pins engine invariance: the same workload commits
// to the same state under every storage_kind x consensus_kind
// combination.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "storage/paged/format.h"
#include "storage/partition_map.h"
#include "wire/message.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::ConsensusKind;
using core::RwResult;
using core::System;
using core::SystemConfig;
using storage::StorageKind;
using storage::paged::SimDisk;

SystemConfig PagedConfig(ConsensusKind consensus) {
  SystemConfig config;
  config.num_partitions = 1;
  config.f = 1;  // 4 replicas.
  config.consensus_kind = consensus;
  config.storage_kind = StorageKind::kPaged;
  config.durability.checkpoint_interval = 8;
  config.batch_interval = sim::Millis(5);
  config.merkle_depth = 10;
  // Long, so the idle cluster never rotates leaders; the revived
  // replica's progress timer still asks for the batches it missed.
  config.view_change_timeout = sim::Seconds(5);
  return config;
}

sim::EnvironmentOptions FastEnv() {
  sim::EnvironmentOptions opts;
  opts.seed = 7;
  opts.inter_site_latency = sim::Millis(2);
  return opts;
}

std::vector<std::pair<Key, Value>> TestData(uint32_t partitions) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 16;
  workload::KeySpace keys(wopts, partitions);
  return keys.InitialData();
}

/// Issues one blind write per key at fixed times; the results land in
/// `out` (same order as `keys`).
void ScheduleWrites(System* system, Client* client,
                    const std::vector<Key>& keys, const std::string& prefix,
                    sim::Time first_at,
                    std::vector<std::optional<RwResult>>* out) {
  size_t base = out->size();
  out->resize(base + keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Key key = keys[i];
    Value value = ToBytes(prefix + std::to_string(i));
    system->env().ScheduleAt(first_at + sim::Millis(20 * i), [=] {
      client->ExecuteReadWrite({}, {WriteOp{key, value}}, [out, base, i](
                                                              RwResult r) {
        (*out)[base + i] = std::move(r);
      });
    });
  }
}

/// The shared scenario: run traffic, crash replica (0, 3) with `fault`
/// applied to its disk, keep committing while it is down, restart it,
/// run more traffic, and require the restarted replica to converge on
/// the cluster's state. The batches it missed while down reach it only
/// through consensus catch-up.
void RunCrashRestartScenario(ConsensusKind consensus,
                             SimDisk::CrashMode mode, uint64_t keep_from_end) {
  SystemConfig config = PagedConfig(consensus);
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  const std::string kPrefixes[] = {"p1-", "down-", "p2-"};
  std::vector<Key> phases[3];
  for (size_t i = 0; i < 15; ++i) phases[i / 5].push_back(data[i].first);

  std::vector<std::optional<RwResult>> results;
  ScheduleWrites(&system, client, phases[0], kPrefixes[0], sim::Millis(50),
                 &results);
  system.env().RunUntil(sim::Millis(500));

  const crypto::NodeId victim = config.ReplicaNode(0, 3);
  system.CrashReplica(victim);
  SimDisk* disk = system.disk(victim);
  ASSERT_NE(disk, nullptr);
  ASSERT_GE(disk->op_count(), keep_from_end);
  disk->Crash(disk->op_count() - keep_from_end, mode);
  ScheduleWrites(&system, client, phases[1], kPrefixes[1], sim::Millis(510),
                 &results);
  system.env().RunUntil(sim::Millis(700));

  Status restarted = system.RestartReplica(victim);
  ASSERT_TRUE(restarted.ok()) << restarted;

  ScheduleWrites(&system, client, phases[2], kPrefixes[2], sim::Millis(800),
                 &results);
  // The revived replica asks for the missing batches when its progress
  // timer (view_change_timeout) fires.
  system.env().RunUntil(sim::Seconds(8));

  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].has_value()) << "write " << i << " never finished";
    EXPECT_TRUE(results[i]->committed) << "write " << i << ": "
                                       << results[i]->reason;
  }

  // The restarted replica holds every write: those it had before the
  // crash, the batches decided while it was down (and, under a torn
  // tail, the batch it lost), and the batches decided after recovery.
  const core::TransEdgeNode* revived = system.node(0, 3);
  for (size_t phase = 0; phase < 3; ++phase) {
    for (size_t i = 0; i < phases[phase].size(); ++i) {
      auto value = revived->store().Get(phases[phase][i]);
      ASSERT_TRUE(value.ok()) << phases[phase][i];
      EXPECT_EQ(ToString(value->value),
                kPrefixes[phase] + std::to_string(i));
    }
  }

  // And it converged on the exact certified tip of the cluster.
  const auto& leader_log = system.node(0, 0)->log();
  const auto& revived_log = revived->log();
  EXPECT_EQ(revived_log.LastBatchId(), leader_log.LastBatchId());
  EXPECT_TRUE(revived_log.back().certificate.merkle_root ==
              leader_log.back().certificate.merkle_root);
}

class CrashRestartTest : public ::testing::TestWithParam<ConsensusKind> {};
INSTANTIATE_TEST_SUITE_P(
    Engines, CrashRestartTest,
    ::testing::Values(ConsensusKind::kPbft, ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

TEST_P(CrashRestartTest, CleanCrashRestartRejoins) {
  RunCrashRestartScenario(GetParam(), SimDisk::CrashMode::kNone, 0);
}

TEST_P(CrashRestartTest, TornWalTailIsDroppedAndCaughtUp) {
  // Tear the final disk op in half: the WAL record it belonged to fails
  // its CRC, recovery comes up one batch short, and the replica closes
  // the gap through consensus catch-up.
  RunCrashRestartScenario(GetParam(), SimDisk::CrashMode::kTorn, 1);
}

// A replica installs each batch, and the paged engine checkpoints it,
// at decide time, ahead of the applied watermark. A replica that
// crashes while its apply lags recovers to the certified root of its
// durable log tail and rejoins.
TEST_P(CrashRestartTest, CrashWhileApplyLagsRecoversAndRejoins) {
  SystemConfig config = PagedConfig(GetParam());
  config.cost.apply_per_txn = sim::Micros(600);
  config.durability.checkpoint_interval = 1;
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  // One burst of writes: a batch whose apply lags its decide by ~15 ms.
  std::vector<Key> burst, after;
  for (size_t i = 0; i < 24; ++i) burst.push_back(data[i].first);
  for (size_t i = 30; i < 35; ++i) after.push_back(data[i].first);
  std::vector<std::optional<RwResult>> results;
  system.env().ScheduleAt(sim::Millis(50), [&] {
    results.resize(burst.size());
    for (size_t i = 0; i < burst.size(); ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{burst[i], ToBytes("burst-" + std::to_string(i))}},
          [&results, i](RwResult r) { results[i] = std::move(r); });
    }
  });

  // Power loss on replica (0, 3) the first time its log tail runs ahead
  // of what it has applied.
  const crypto::NodeId victim = config.ReplicaNode(0, 3);
  BatchId crashed_tail = kNoBatch;
  std::function<void()> crash_when_lagging = [&] {
    const core::TransEdgeNode* n = system.node(0, 3);
    if (n->log().LastBatchId() > n->last_applied()) {
      crashed_tail = n->log().LastBatchId();
      system.CrashReplica(victim);
      system.disk(victim)->Crash(0, SimDisk::CrashMode::kNone);
      return;
    }
    if (system.env().now() < sim::Millis(300)) {
      system.env().Schedule(sim::Micros(100), crash_when_lagging);
    }
  };
  system.env().ScheduleAt(sim::Millis(50), crash_when_lagging);
  system.env().RunUntil(sim::Millis(400));
  ASSERT_NE(crashed_tail, kNoBatch) << "apply never lagged on the victim";

  Status restarted = system.RestartReplica(victim);
  ASSERT_TRUE(restarted.ok()) << restarted;
  const core::TransEdgeNode* revived = system.node(0, 3);
  EXPECT_EQ(revived->log().LastBatchId(), crashed_tail);
  EXPECT_EQ(revived->last_applied(), crashed_tail);
  EXPECT_TRUE(revived->tree().RootDigest() ==
              revived->log().back().certificate.merkle_root);

  ScheduleWrites(&system, client, after, "after-", sim::Millis(450),
                 &results);
  system.env().RunUntil(sim::Seconds(8));

  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].has_value()) << "write " << i << " never finished";
    EXPECT_TRUE(results[i]->committed) << "write " << i << ": "
                                       << results[i]->reason;
  }
  for (size_t i = 0; i < burst.size(); ++i) {
    auto value = revived->store().Get(burst[i]);
    ASSERT_TRUE(value.ok()) << burst[i];
    EXPECT_EQ(ToString(value->value), "burst-" + std::to_string(i));
  }
  for (size_t i = 0; i < after.size(); ++i) {
    auto value = revived->store().Get(after[i]);
    ASSERT_TRUE(value.ok()) << after[i];
    EXPECT_EQ(ToString(value->value), "after-" + std::to_string(i));
  }
  const auto& leader_log = system.node(0, 0)->log();
  EXPECT_EQ(revived->log().LastBatchId(), leader_log.LastBatchId());
  EXPECT_EQ(revived->last_applied(), leader_log.LastBatchId());
  EXPECT_TRUE(revived->log().back().certificate.merkle_root ==
              leader_log.back().certificate.merkle_root);
}

// A checkpoint is never durable ahead of the WAL it covers. With group
// commit 4 and a checkpoint every batch, a power loss that keeps none of
// the unsynced writes must still leave a log that reaches the
// checkpointed store, or no certified root would match it.
TEST_P(CrashRestartTest, CheckpointIsNeverDurableAheadOfItsWal) {
  SystemConfig config = PagedConfig(GetParam());
  config.durability.wal_group_commit = 4;
  config.durability.checkpoint_interval = 1;
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  std::vector<Key> keys;
  for (size_t i = 0; i < 6; ++i) keys.push_back(data[i].first);
  std::vector<std::optional<RwResult>> results;
  ScheduleWrites(&system, client, keys, "w-", sim::Millis(50), &results);
  system.env().RunUntil(sim::Millis(400));
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->committed) << r->reason;
  }

  const crypto::NodeId victim = config.ReplicaNode(0, 3);
  system.CrashReplica(victim);
  system.disk(victim)->Crash(0, SimDisk::CrashMode::kNone);
  Status restarted = system.RestartReplica(victim);
  ASSERT_TRUE(restarted.ok()) << restarted;
  const core::TransEdgeNode* revived = system.node(0, 3);
  EXPECT_TRUE(revived->tree().RootDigest() ==
              revived->log().back().certificate.merkle_root);
}

/// Two clusters under `consensus` whose replicas checkpoint to paged
/// storage. The short progress timeout lets a revived follower ask for
/// the batches it missed within a few hundred milliseconds.
SystemConfig TwoClusterConfig(ConsensusKind consensus) {
  SystemConfig config = PagedConfig(consensus);
  config.num_partitions = 2;
  config.view_change_timeout = sim::Millis(300);
  return config;
}

/// One blind write per partition every 4 ms over [from, until), cycling
/// through `keys[p]`, so that both clusters keep deciding a batch about
/// every batch interval.
void ScheduleLocalTraffic(System* system, Client* client,
                          const std::vector<std::vector<Key>>& keys,
                          sim::Time from, sim::Time until) {
  size_t n = 0;
  for (sim::Time at = from; at < until; at += sim::Millis(4), ++n) {
    for (const std::vector<Key>& partition_keys : keys) {
      Key key = partition_keys[n % partition_keys.size()];
      system->env().ScheduleAt(at, [=] {
        client->ExecuteReadWrite({}, {WriteOp{key, ToBytes("local")}},
                                 [](RwResult) {});
      });
    }
  }
}

/// Holds every 2PC message until `release_at`, then sends them all.
void Hold2pcUntil(System* system, sim::Time release_at) {
  struct Held {
    bool holding = true;
    std::vector<std::tuple<sim::ActorId, sim::ActorId, sim::MessagePtr>>
        msgs;
  };
  auto held = std::make_shared<Held>();
  sim::Network& net = system->env().network();
  net.SetLinkFilter([held](sim::ActorId from, sim::ActorId to,
                           const sim::MessagePtr& msg) {
    auto type = static_cast<wire::MessageType>(msg->type());
    if (held->holding && (type == wire::MessageType::kCoordPrepare ||
                          type == wire::MessageType::kPrepared ||
                          type == wire::MessageType::kCommitRecord)) {
      held->msgs.emplace_back(from, to, msg);
      return false;
    }
    return true;
  });
  system->env().ScheduleAt(release_at, [held, &net] {
    held->holding = false;
    for (auto& [from, to, msg] : held->msgs) net.Send(from, to, msg);
    held->msgs.clear();
  });
}

/// The shape both two-cluster scenarios share: a two-cluster write
/// issued at 20 ms whose 2PC messages are held until `release_at`, and
/// local writes that keep both clusters batching until `traffic_until`.
struct TwoClusterWrite {
  explicit TwoClusterWrite(const SystemConfig& config)
      : system(config, FastEnv()) {
    auto data = TestData(config.num_partitions);
    system.Preload(data);
    system.Start();
    client = system.AddClient();
    storage::PartitionMap pmap(config.num_partitions);
    keys.resize(config.num_partitions);
    for (const auto& [key, value] : data) {
      keys[pmap.OwnerOf(key)].push_back(key);
    }
    // The first key of each partition is the two-cluster write's; local
    // traffic cycles through the next 20.
    local_keys.resize(config.num_partitions);
    for (PartitionId p = 0; p < config.num_partitions; ++p) {
      local_keys[p].assign(keys[p].begin() + 1, keys[p].begin() + 21);
    }
  }

  void Run(sim::Time release_at, sim::Time traffic_until) {
    Hold2pcUntil(&system, release_at);
    ScheduleLocalTraffic(&system, client, local_keys, sim::Millis(10),
                         traffic_until);
    system.env().ScheduleAt(sim::Millis(20), [this] {
      client->ExecuteReadWrite({}, {WriteOp{keys[0][0], ToBytes("d0")},
                                    WriteOp{keys[1][0], ToBytes("d1")}},
                               [this](RwResult r) { dist = std::move(r); });
    });
  }

  /// Crash-stops follower 3 of partition `p`, keeping every write it
  /// issued to its disk.
  void Crash(PartitionId p) {
    const crypto::NodeId victim = system.config().ReplicaNode(p, 3);
    system.CrashReplica(victim);
    SimDisk* disk = system.disk(victim);
    disk->Crash(disk->op_count(), SimDisk::CrashMode::kPrefix);
  }

  Status Restart(PartitionId p) {
    return system.RestartReplica(system.config().ReplicaNode(p, 3));
  }

  /// The revived follower of `p` holds the two-cluster write.
  void ExpectHoldsTheWrite(PartitionId p) {
    auto value = system.node(p, 3)->store().Get(keys[p][0]);
    ASSERT_TRUE(value.ok()) << "partition " << p;
    EXPECT_EQ(ToString(value->value), "d" + std::to_string(p))
        << "partition " << p;
  }

  System system;
  Client* client = nullptr;
  std::vector<std::vector<Key>> keys;
  std::vector<std::vector<Key>> local_keys;
  std::optional<RwResult> dist;
};

// A group whose prepare batch fell below the log base before its commit
// record arrived: the commit's write must still reach the checkpoint, so
// a replica restarted after it recovers to a certified root. The write
// enters the store, and the paged engine's dirty set, through one Put.
TEST_P(CrashRestartTest, LateCommitOfATruncatedGroupSurvivesRestart) {
  SystemConfig config = TwoClusterConfig(GetParam());
  config.snapshot_history = 16;
  config.durability.checkpoint_interval = 4;
  TwoClusterWrite run(config);
  run.Run(/*release_at=*/sim::Millis(1500),
          /*traffic_until=*/sim::Millis(1800));
  run.system.env().RunUntil(sim::Millis(1600));
  ASSERT_TRUE(run.dist.has_value()) << "the two-cluster write never finished";
  ASSERT_TRUE(run.dist->committed) << run.dist->reason;

  // The coordinating cluster logged the commit record long after its log
  // base had moved past the batch that prepared the group.
  bool truncated_group = false;
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    const storage::SmrLog& log = run.system.node(p, 3)->log();
    for (BatchId id = log.FirstBatchId(); id <= log.LastBatchId(); ++id) {
      for (const storage::CommitRecord& rec :
           log.Get(id).value()->batch.committed) {
        if (rec.txn_id == run.dist->txn_id &&
            rec.prepared_in_batch < log.FirstBatchId()) {
          truncated_group = true;
        }
      }
    }
  }
  ASSERT_TRUE(truncated_group);

  // Let later checkpoints cover the commit record, then restart.
  run.system.env().RunUntil(sim::Millis(1900));
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    run.Crash(p);
    Status restarted = run.Restart(p);
    ASSERT_TRUE(restarted.ok()) << "partition " << p << ": " << restarted;
    run.ExpectHoldsTheWrite(p);
  }
}

// A follower restarted while a two-cluster transaction it logged the
// prepare of is still undecided re-forms that prepare group from its
// log, so it can validate the batch carrying the commit record and catch
// up past it.
TEST_P(CrashRestartTest, RestartAcrossACommitRecordCatchesUp) {
  SystemConfig config = TwoClusterConfig(GetParam());
  TwoClusterWrite run(config);
  run.Run(/*release_at=*/sim::Millis(600),
          /*traffic_until=*/sim::Millis(1500));
  run.system.env().RunUntil(sim::Millis(300));
  for (PartitionId p = 0; p < config.num_partitions; ++p) run.Crash(p);
  run.system.env().RunUntil(sim::Millis(400));
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    Status restarted = run.Restart(p);
    ASSERT_TRUE(restarted.ok()) << "partition " << p << ": " << restarted;
  }
  run.system.env().RunUntil(sim::Seconds(3));

  ASSERT_TRUE(run.dist.has_value()) << "the two-cluster write never finished";
  ASSERT_TRUE(run.dist->committed) << run.dist->reason;
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    const storage::SmrLog& leader_log = run.system.leader(p)->log();
    const storage::SmrLog& revived_log = run.system.node(p, 3)->log();
    EXPECT_EQ(revived_log.LastBatchId(), leader_log.LastBatchId())
        << "partition " << p;
    EXPECT_TRUE(revived_log.back().certificate.merkle_root ==
                leader_log.back().certificate.merkle_root)
        << "partition " << p;
    run.ExpectHoldsTheWrite(p);
  }
}

TEST(RecoveryTest, CorruptedDiskKeepsReplicaDownButClusterLives) {
  SystemConfig config = PagedConfig(ConsensusKind::kLinearVote);
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  std::vector<std::optional<RwResult>> results;
  ScheduleWrites(&system, client, {data[0].first, data[1].first}, "p1-",
                 sim::Millis(50), &results);
  system.env().RunUntil(sim::Millis(400));

  const crypto::NodeId victim = config.ReplicaNode(0, 3);
  system.CrashReplica(victim);
  SimDisk* disk = system.disk(victim);
  ASSERT_NE(disk, nullptr);
  disk->Crash(disk->op_count(), SimDisk::CrashMode::kNone);
  // Media corruption in a checkpoint data page: recovery must refuse.
  disk->CorruptByte(storage::paged::kPagesFileId,
                    static_cast<uint64_t>(storage::paged::kFirstDataPage) *
                            config.durability.page_size +
                        storage::paged::kPageHeaderSize + 3);
  EXPECT_FALSE(system.RestartReplica(victim).ok());

  // The remaining 3 of 4 replicas still form a quorum.
  ScheduleWrites(&system, client, {data[2].first, data[3].first}, "p2-",
                 sim::Millis(500), &results);
  system.env().RunUntil(sim::Seconds(3));
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->committed) << r->reason;
  }
}

TEST(RecoveryTest, CommittedStateIsInvariantAcrossEngines) {
  // The same conflict-free workload must commit everywhere and leave the
  // same values under every storage x consensus combination; only
  // timing (I/O charges) may differ.
  struct Combo {
    StorageKind storage;
    ConsensusKind consensus;
  };
  const Combo kCombos[] = {
      {StorageKind::kInMemory, ConsensusKind::kPbft},
      {StorageKind::kInMemory, ConsensusKind::kLinearVote},
      {StorageKind::kPaged, ConsensusKind::kPbft},
      {StorageKind::kPaged, ConsensusKind::kLinearVote},
  };

  std::vector<Key> keys;
  std::vector<std::map<Key, std::string>> finals;
  for (const Combo& combo : kCombos) {
    SystemConfig config = PagedConfig(combo.consensus);
    config.storage_kind = combo.storage;
    System system(config, FastEnv());
    auto data = TestData(config.num_partitions);
    system.Preload(data);
    system.Start();
    Client* client = system.AddClient();

    if (keys.empty()) {
      for (size_t i = 0; i < 6; ++i) keys.push_back(data[i].first);
    }
    std::vector<std::optional<RwResult>> results;
    ScheduleWrites(&system, client, keys, "inv-", sim::Millis(50), &results);
    system.env().RunUntil(sim::Seconds(2));

    for (const auto& r : results) {
      ASSERT_TRUE(r.has_value());
      EXPECT_TRUE(r->committed) << r->reason;
    }
    std::map<Key, std::string> final_values;
    for (const Key& key : keys) {
      auto value = system.node(0, 0)->store().Get(key);
      ASSERT_TRUE(value.ok());
      final_values[key] = ToString(value->value);
    }
    finals.push_back(std::move(final_values));

    // The disk accessor mirrors the engine choice.
    if (combo.storage == StorageKind::kPaged) {
      EXPECT_NE(system.disk(0), nullptr);
    } else {
      EXPECT_EQ(system.disk(0), nullptr);
    }
  }
  for (size_t i = 1; i < finals.size(); ++i) {
    EXPECT_EQ(finals[i], finals[0]) << "combo " << i;
  }
}

}  // namespace
}  // namespace transedge
