// Whole-stack smoke tests: build a full deployment, run transactions end
// to end through consensus, 2PC, and the read-only protocol.

#include <gtest/gtest.h>

#include <optional>

#include "core/system.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::RoResult;
using core::RwResult;
using core::System;
using core::SystemConfig;

SystemConfig SmallConfig() {
  SystemConfig config;
  config.num_partitions = 3;
  config.f = 1;  // 4 replicas per cluster.
  config.batch_interval = sim::Millis(5);
  config.merkle_depth = 10;
  return config;
}

sim::EnvironmentOptions FastEnv() {
  sim::EnvironmentOptions opts;
  opts.seed = 7;
  opts.inter_site_latency = sim::Millis(2);
  return opts;
}

std::vector<std::pair<Key, Value>> TestData(uint32_t partitions,
                                            uint64_t num_keys = 300) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = num_keys;
  wopts.value_size = 16;
  workload::KeySpace keys(wopts, partitions);
  return keys.InitialData();
}

TEST(SystemSmokeTest, GenesisBatchesCertifyPreload) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  system.Preload(TestData(config.num_partitions));
  system.Start();
  system.env().RunUntil(sim::Millis(200));

  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const auto& log = system.node(p, i)->log();
      ASSERT_GE(log.size(), 1u) << "partition " << p << " replica " << i;
      // Every replica of a cluster agrees on the genesis batch.
      EXPECT_EQ(log.Get(0).value()->batch.ro.merkle_root,
                system.node(p, 0)->log().Get(0).value()->batch.ro.merkle_root);
    }
  }
}

TEST(SystemSmokeTest, LocalTransactionCommits) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  // Pick two keys from partition 0.
  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> part0_keys;
  for (const auto& [key, value] : data) {
    if (pmap.OwnerOf(key) == 0) part0_keys.push_back(key);
    if (part0_keys.size() == 2) break;
  }
  ASSERT_EQ(part0_keys.size(), 2u);

  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadWrite(
        {part0_keys[0]}, {WriteOp{part0_keys[1], ToBytes("new-value")}},
        [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(2));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  EXPECT_GT(result->latency, 0);

  // The write is visible on every replica of partition 0.
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    auto value = system.node(0, i)->store().Get(part0_keys[1]);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(ToString(value->value), "new-value");
  }
}

// A crashed replica keeps the view it died in, so it still thinks it
// leads: System::leader names the live replica that leads the new view.
TEST(SystemSmokeTest, LeaderAfterALeaderCrashIsTheLiveLeaderOfTheNewView) {
  for (core::ConsensusKind kind :
       {core::ConsensusKind::kPbft, core::ConsensusKind::kLinearVote}) {
    SCOPED_TRACE(static_cast<int>(kind));
    SystemConfig config = SmallConfig();
    config.consensus_kind = kind;
    System system(config, FastEnv());
    auto data = TestData(config.num_partitions);
    system.Preload(data);
    system.Start();
    Client* client = system.AddClient();
    storage::PartitionMap pmap(config.num_partitions);
    Key key;
    for (const auto& [k, value] : data) {
      if (pmap.OwnerOf(k) == 0) {
        key = k;
        break;
      }
    }

    const core::TransEdgeNode* crashed = system.leader(0);
    std::optional<RwResult> result;
    system.env().Schedule(sim::Millis(50), [&] {
      system.CrashReplica(crashed->id());
      client->ExecuteReadWrite({}, {WriteOp{key, ToBytes("after")}},
                               [&](RwResult r) { result = std::move(r); });
    });
    system.env().RunUntil(sim::Seconds(10));

    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->committed) << result->reason;
    EXPECT_TRUE(crashed->IsLeader());
    const core::TransEdgeNode* leader = system.leader(0);
    EXPECT_FALSE(leader->halted());
    EXPECT_TRUE(leader->IsLeader());
    EXPECT_GT(leader->view(), crashed->view());
  }
}

TEST(SystemSmokeTest, RetryRotatesOnlyTheTouchedPartitionsLeaderHints) {
  SystemConfig config = SmallConfig();
  config.client_timeout = sim::Millis(200);
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  Client* client = system.AddClient();

  storage::PartitionMap pmap(config.num_partitions);
  std::optional<Key> key0, key1;
  for (const auto& [key, value] : data) {
    if (!key0 && pmap.OwnerOf(key) == 0) key0 = key;
    if (!key1 && pmap.OwnerOf(key) == 1) key1 = key;
  }
  ASSERT_TRUE(key0 && key1);

  // The first commit request to partition 0's leader is lost, so the
  // first transaction commits only through the client's timeout retry.
  // Commit requests a replica of partition 1 sends are followers
  // forwarding a misdirected request to their leader.
  const crypto::NodeId leader0 = config.ReplicaNode(0, 0);
  const crypto::NodeId leader1 = config.ReplicaNode(1, 0);
  int dropped = 0;
  int direct_to_leader1 = 0;
  int forwarded_in_partition1 = 0;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId to, const sim::MessagePtr& msg) {
        if (static_cast<wire::MessageType>(msg->type()) !=
            wire::MessageType::kCommitRequest) {
          return true;
        }
        if (from == client->id() && to == leader0 && dropped == 0) {
          ++dropped;
          return false;
        }
        if (from == client->id() && to == leader1) ++direct_to_leader1;
        if (from < config.total_replicas() &&
            config.PartitionOfNode(from) == 1) {
          ++forwarded_in_partition1;
        }
        return true;
      });
  system.Start();

  std::optional<RwResult> retried, local;
  system.env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadWrite({}, {WriteOp{*key0, ToBytes("retried")}},
                             [&](RwResult r) { retried = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(retried.has_value());
  EXPECT_TRUE(retried->committed) << retried->reason;
  EXPECT_EQ(dropped, 1);

  // Partition 1's leader never failed the client: its hint still names
  // it, so the request reaches it directly and no follower forwards it.
  system.env().Schedule(sim::Millis(10), [&] {
    client->ExecuteReadWrite({}, {WriteOp{*key1, ToBytes("direct")}},
                             [&](RwResult r) { local = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(4));
  ASSERT_TRUE(local.has_value());
  EXPECT_TRUE(local->committed) << local->reason;
  EXPECT_EQ(direct_to_leader1, 1);
  EXPECT_EQ(forwarded_in_partition1, 0);
}

TEST(SystemSmokeTest, DistributedTransactionCommitsAcrossClusters) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  storage::PartitionMap pmap(config.num_partitions);
  Key key_a, key_b;
  for (const auto& [key, value] : data) {
    if (key_a.empty() && pmap.OwnerOf(key) == 0) key_a = key;
    if (key_b.empty() && pmap.OwnerOf(key) == 1) key_b = key;
  }
  ASSERT_FALSE(key_a.empty());
  ASSERT_FALSE(key_b.empty());

  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadWrite({key_a, key_b},
                             {WriteOp{key_a, ToBytes("va")},
                              WriteOp{key_b, ToBytes("vb")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(5));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;

  // Both partitions applied their half of the write set on all replicas.
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(ToString(system.node(0, i)->store().Get(key_a)->value), "va");
    EXPECT_EQ(ToString(system.node(1, i)->store().Get(key_b)->value), "vb");
  }
}

TEST(SystemSmokeTest, ReadOnlyTransactionVerifiesAndReturnsValues) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  // One key per partition.
  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> keys(config.num_partitions);
  std::vector<Value> expected(config.num_partitions);
  for (const auto& [key, value] : data) {
    PartitionId p = pmap.OwnerOf(key);
    if (keys[p].empty()) {
      keys[p] = key;
      expected[p] = value;
    }
  }

  std::optional<RoResult> result;
  system.env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadOnly({keys.begin(), keys.end()},
                            [&](RoResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(2));

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok()) << result->status;
  EXPECT_FALSE(result->needed_third_round);
  EXPECT_LE(result->rounds, 2);
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    ASSERT_TRUE(result->values.count(keys[p]) > 0);
    ASSERT_TRUE(result->values[keys[p]].has_value());
    EXPECT_EQ(*result->values[keys[p]], expected[p]);
  }
}

TEST(SystemSmokeTest, ReadOnlySeesCommittedWrite) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  storage::PartitionMap pmap(config.num_partitions);
  Key key;
  for (const auto& [k, v] : data) {
    if (pmap.OwnerOf(k) == 1) {
      key = k;
      break;
    }
  }

  std::optional<RoResult> ro;
  system.env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadWrite({}, {WriteOp{key, ToBytes("fresh")}},
                             [&](RwResult r) {
                               ASSERT_TRUE(r.committed);
                               client->ExecuteReadOnly(
                                   {key}, [&](RoResult r2) {
                                     ro = std::move(r2);
                                   });
                             });
  });
  system.env().RunUntil(sim::Seconds(3));

  ASSERT_TRUE(ro.has_value());
  ASSERT_TRUE(ro->status.ok()) << ro->status;
  ASSERT_TRUE(ro->values[key].has_value());
  EXPECT_EQ(ToString(*ro->values[key]), "fresh");
}

}  // namespace
}  // namespace transedge
