// Intra-cluster consensus tests (PBFT, the default engine): batch
// certification, quorum behaviour under crash faults, certificates, and
// vote admission. View changes run under both engines in
// consensus_interface_test.cc.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/system.h"
#include "storage/partition_map.h"
#include "wire/message.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::RwResult;
using core::System;
using core::SystemConfig;

SystemConfig OneClusterConfig(uint32_t f = 1) {
  SystemConfig config;
  config.num_partitions = 1;
  config.f = f;
  config.batch_interval = sim::Millis(5);
  config.view_change_timeout = sim::Millis(100);
  config.merkle_depth = 8;
  return config;
}

sim::EnvironmentOptions FastEnv(uint64_t seed = 3) {
  sim::EnvironmentOptions opts;
  opts.seed = seed;
  opts.inter_site_latency = sim::Millis(1);
  return opts;
}

std::vector<std::pair<Key, Value>> SomeData(uint32_t partitions) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = 100;
  wopts.value_size = 8;
  return workload::KeySpace(wopts, partitions).InitialData();
}

TEST(ConsensusTest, AllReplicasConvergeOnIdenticalLogs) {
  SystemConfig config = OneClusterConfig();
  System system(config, FastEnv());
  auto data = SomeData(1);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  int committed = 0;
  system.env().Schedule(sim::Millis(30), [&] {
    for (int i = 0; i < 20; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("w")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Seconds(2));
  EXPECT_EQ(committed, 20);

  const auto& reference = system.node(0, 0)->log();
  ASSERT_GT(reference.size(), 0u);
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    const auto& log = system.node(0, i)->log();
    ASSERT_EQ(log.size(), reference.size()) << "replica " << i;
    for (BatchId b = 0; b <= reference.LastBatchId(); ++b) {
      EXPECT_EQ(log.Get(b).value()->batch.ComputeDigest(),
                reference.Get(b).value()->batch.ComputeDigest())
          << "batch " << b << " replica " << i;
    }
  }
}

TEST(ConsensusTest, CertificatesCarryQuorumOfValidSignatures) {
  SystemConfig config = OneClusterConfig();
  System system(config, FastEnv());
  system.Preload(SomeData(1));
  system.Start();
  system.env().RunUntil(sim::Millis(100));

  const auto& log = system.node(0, 0)->log();
  ASSERT_GE(log.size(), 1u);
  const storage::LogEntry* genesis = log.Get(0).value();
  Status s = genesis->certificate.Verify(system.verifier(),
                                         config.certificate_size(),
                                         config.ClusterMembers(0));
  EXPECT_TRUE(s.ok()) << s;
  // The certificate must commit to the batch's actual contents.
  EXPECT_EQ(genesis->certificate.batch_digest,
            genesis->batch.ComputeDigest());
  EXPECT_EQ(genesis->certificate.merkle_root, genesis->batch.ro.merkle_root);
  EXPECT_EQ(genesis->certificate.ro_digest, genesis->batch.ro.ComputeDigest());
}

TEST(ConsensusTest, ProgressWithFCrashedFollowers) {
  SystemConfig config = OneClusterConfig(/*f=*/2);  // 7 replicas.
  System system(config, FastEnv());
  auto data = SomeData(1);
  system.Preload(data);
  system.Start();
  // Crash f followers (not the leader).
  system.node(0, 5)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);
  system.node(0, 6)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);

  Client* client = system.AddClient();
  int committed = 0;
  system.env().Schedule(sim::Millis(30), [&] {
    for (int i = 0; i < 10; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("w")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Seconds(2));
  EXPECT_EQ(committed, 10);
}

TEST(ConsensusTest, NoProgressBeyondFCrashes) {
  SystemConfig config = OneClusterConfig(/*f=*/1);  // 4 replicas, quorum 3.
  System system(config, FastEnv());
  auto data = SomeData(1);
  system.Preload(data);
  system.Start();
  // Crash 2 > f followers: quorum is unreachable, nothing commits.
  system.node(0, 2)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);
  system.node(0, 3)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("w")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(10));
  // The client request eventually fails; no batch beyond (possibly) none
  // was certified.
  if (result.has_value()) {
    EXPECT_FALSE(result->committed);
  }
  EXPECT_EQ(system.node(0, 0)->log().size(), 0u);
}

// PBFT counts Prepare and Commit votes only from members of its own
// cluster. Replica 3 is down and replica 2's Commits never reach
// replicas 0 and 1, so those two hold only two member Commits for the
// pending batch. Prepares and Commits that a client and another
// cluster's replicas inject must not make up the quorum.
TEST(ConsensusTest, VotesFromOutsideTheClusterAreIgnored) {
  SystemConfig config = OneClusterConfig();
  config.num_partitions = 2;
  System system(config, FastEnv());
  auto data = SomeData(2);
  system.Preload(data);
  system.Start();
  system.env().RunUntil(sim::Millis(50));
  const BatchId decided = system.node(0, 0)->log().LastBatchId();
  system.env().network().Disconnect(config.ReplicaNode(0, 3));
  system.node(0, 3)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);

  const crypto::NodeId muted = config.ReplicaNode(0, 2);
  std::optional<wire::PrePrepareMsg> proposal;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId, const sim::MessagePtr& msg) {
        auto type = static_cast<wire::MessageType>(msg->type());
        if (type == wire::MessageType::kCommit) return from != muted;
        if (!proposal.has_value() && type == wire::MessageType::kPrePrepare) {
          const auto& pre = static_cast<const wire::PrePrepareMsg&>(*msg);
          if (pre.batch.partition == 0) proposal = pre;
        }
        return true;
      });
  Client* client = system.AddClient();
  storage::PartitionMap pmap(config.num_partitions);
  Key key;
  for (const auto& [k, v] : data) {
    if (pmap.OwnerOf(k) == 0) key = k;
  }
  client->ExecuteReadWrite({}, {WriteOp{key, ToBytes("w")}}, [](RwResult) {});
  system.env().RunUntil(sim::Millis(80));
  ASSERT_TRUE(proposal.has_value());

  std::vector<sim::ActorId> outsiders = {client->id()};
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    outsiders.push_back(config.ReplicaNode(1, i));
  }
  const crypto::Digest digest = proposal->batch.ComputeDigest();
  for (sim::ActorId from : outsiders) {
    for (uint32_t i : {0u, 1u}) {
      wire::PrepareMsg prepare;
      prepare.view = proposal->view;
      prepare.batch_id = proposal->batch.id;
      prepare.batch_digest = digest;
      prepare.cert_share = crypto::Signature{
          static_cast<crypto::NodeId>(from), crypto::Sha256::Hash("share")};
      wire::CommitMsg commit;
      commit.view = proposal->view;
      commit.batch_id = proposal->batch.id;
      commit.batch_digest = digest;
      crypto::NodeId to = config.ReplicaNode(0, i);
      system.env().network().SendAt(system.env().now(), from, to,
                                    wire::ShareMsg(std::move(prepare)));
      system.env().network().SendAt(system.env().now(), from, to,
                                    wire::ShareMsg(std::move(commit)));
    }
  }
  // Before any progress timer fires: replica 2 holds three member
  // Commits and decides; replicas 0 and 1 hold two and must not.
  system.env().RunUntil(sim::Millis(130));
  EXPECT_GT(system.node(0, 2)->log().LastBatchId(), decided);
  EXPECT_EQ(system.node(0, 0)->log().LastBatchId(), decided);
  EXPECT_EQ(system.node(0, 1)->log().LastBatchId(), decided);
}

TEST(ConsensusTest, BatchesRespectSizeTrigger) {
  SystemConfig config = OneClusterConfig();
  config.max_batch_size = 5;
  config.batch_interval = sim::Millis(50);  // Timer slow; size triggers.
  System system(config, FastEnv());
  auto data = SomeData(1);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  int committed = 0;
  system.env().Schedule(sim::Millis(60), [&] {
    for (int i = 0; i < 12; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("w")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Seconds(2));
  EXPECT_EQ(committed, 12);

  // At least one batch was closed by the size trigger (5 txns).
  const auto& log = system.node(0, 0)->log();
  bool size_triggered = false;
  for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
    if (log.Get(b).value()->batch.local.size() == 5) size_triggered = true;
  }
  EXPECT_TRUE(size_triggered);
}

}  // namespace
}  // namespace transedge
