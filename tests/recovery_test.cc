// Crash-recovery scenario family: a replica of a live deployment is
// crash-stopped, its simulated disk suffers a configurable power-loss
// fault, and a successor recovers from checkpoint + WAL and rejoins the
// cluster. Also pins engine invariance: the same workload commits to the
// same state under every storage_kind x consensus_kind combination.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "storage/paged/format.h"
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

// Under async apply a replica installs each batch, and the paged engine
// checkpoints it, at decide time, ahead of the applied watermark. A
// replica that crashes while its apply lags recovers to the certified
// root of its durable log tail and rejoins.
TEST_P(CrashRestartTest, CrashWhileApplyLagsRecoversAndRejoins) {
  SystemConfig config = PagedConfig(GetParam());
  config.async_apply = true;
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
