// The Consensus interface seam: every engine behind
// SystemConfig::consensus_kind must produce the same committed store
// state for the same workload/seed and valid certificates. The view
// change both engines share (core/consensus/view_change.h) is tested
// under each engine (ViewChangeTest). Also pins the message-complexity
// contrast the linear engine exists for (O(n) vs O(n²) per decided
// batch).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
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

SystemConfig BaseConfig(ConsensusKind kind, uint32_t partitions = 2,
                        uint32_t f = 1) {
  SystemConfig config;
  config.num_partitions = partitions;
  config.f = f;
  config.consensus_kind = kind;
  config.batch_interval = sim::Millis(5);
  config.view_change_timeout = sim::Millis(100);
  config.merkle_depth = 8;
  return config;
}

sim::EnvironmentOptions FastEnv(uint64_t seed = 7) {
  sim::EnvironmentOptions opts;
  opts.seed = seed;
  opts.inter_site_latency = sim::Millis(1);
  return opts;
}

std::vector<std::pair<Key, Value>> TestData(uint32_t partitions) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 8;
  return workload::KeySpace(wopts, partitions).InitialData();
}

/// Runs the same mixed workload (independent local writes, a contended
/// read-modify-write chain, distributed cross-partition writes) under
/// `kind` and returns the final committed state of every touched key,
/// after asserting all replicas of the owning cluster agree on it.
std::map<Key, std::string> RunWorkload(ConsensusKind kind, uint64_t seed) {
  SystemConfig config = BaseConfig(kind);
  System system(config, FastEnv(seed));
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();

  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> part0_keys, part1_keys;
  for (const auto& [key, value] : data) {
    (pmap.OwnerOf(key) == 0 ? part0_keys : part1_keys).push_back(key);
  }

  std::vector<Key> touched;
  int pending = 0;
  auto done = [&](RwResult r) {
    EXPECT_TRUE(r.committed) << r.reason;
    --pending;
  };

  // (a) Independent local writers on each partition.
  for (int c = 0; c < 4; ++c) {
    Client* client = system.AddClient();
    Key k0 = part0_keys[static_cast<size_t>(c)];
    Key k1 = part1_keys[static_cast<size_t>(c)];
    touched.push_back(k0);
    touched.push_back(k1);
    system.env().Schedule(sim::Millis(20), [&, client, k0, k1, c] {
      pending += 2;
      client->ExecuteReadWrite(
          {}, {WriteOp{k0, ToBytes("l" + std::to_string(c))}}, done);
      client->ExecuteReadWrite(
          {}, {WriteOp{k1, ToBytes("l" + std::to_string(c))}}, done);
    });
  }

  // (b) A contended chain on one hot key: sequential read-modify-writes.
  // `chain` lives in this frame, which outlives every simulated event.
  std::function<void(int)> chain;
  {
    Client* client = system.AddClient();
    Key hot = part0_keys[10];
    touched.push_back(hot);
    chain = [&, client, hot](int step) {
      if (step >= 4) return;
      ++pending;
      client->ExecuteReadWrite(
          {hot}, {WriteOp{hot, ToBytes("chain" + std::to_string(step))}},
          [&, step](RwResult r) {
            EXPECT_TRUE(r.committed) << r.reason;
            --pending;
            chain(step + 1);
          });
    };
    system.env().Schedule(sim::Millis(20), [&chain] { chain(0); });
  }

  // (c) Distributed writers over disjoint cross-partition pairs.
  for (int c = 0; c < 3; ++c) {
    Client* client = system.AddClient();
    Key a = part0_keys[static_cast<size_t>(13 + c)];
    Key b = part1_keys[static_cast<size_t>(c + 5)];
    touched.push_back(a);
    touched.push_back(b);
    system.env().Schedule(sim::Millis(25), [&, client, a, b, c] {
      ++pending;
      client->ExecuteReadWrite(
          {}, {WriteOp{a, ToBytes("d" + std::to_string(c))},
               WriteOp{b, ToBytes("d" + std::to_string(c))}},
          done);
    });
  }

  system.env().RunUntil(sim::Seconds(5));
  EXPECT_EQ(pending, 0) << "workload did not drain under "
                        << core::ConsensusKindName(kind);

  std::map<Key, std::string> state;
  for (const Key& key : touched) {
    PartitionId p = pmap.OwnerOf(key);
    auto value = system.node(p, 0)->store().Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (!value.ok()) continue;
    state[key] = ToString(value->value);
    for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
      auto other = system.node(p, i)->store().Get(key);
      EXPECT_TRUE(other.ok()) << key;
      if (!other.ok()) continue;
      EXPECT_EQ(ToString(other->value), state[key])
          << "replica " << i << " diverges on " << key << " under "
          << core::ConsensusKindName(kind);
    }
  }
  return state;
}

// ---------------------------------------------------------------------------
// Engine invariance: identical committed state across engines
// ---------------------------------------------------------------------------

TEST(ConsensusInterfaceTest, CommittedStateIsIdenticalAcrossEngines) {
  for (uint64_t seed : {7u, 21u}) {
    std::map<Key, std::string> pbft = RunWorkload(ConsensusKind::kPbft, seed);
    ASSERT_FALSE(pbft.empty());
    std::map<Key, std::string> linear =
        RunWorkload(ConsensusKind::kLinearVote, seed);
    EXPECT_EQ(linear, pbft) << "engines diverged at seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Linear-vote engine basics
// ---------------------------------------------------------------------------

class LinearVoteTest : public ::testing::Test {};

TEST_F(LinearVoteTest, ReplicasConvergeOnIdenticalLogs) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
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

TEST_F(LinearVoteTest, CertificatesCarryQuorumOfValidSignatures) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  system.Preload(TestData(1));
  system.Start();
  system.env().RunUntil(sim::Millis(100));

  const auto& log = system.node(0, 0)->log();
  ASSERT_GE(log.size(), 1u);
  const storage::LogEntry* genesis = log.Get(0).value();
  Status s = genesis->certificate.Verify(system.verifier(),
                                         config.certificate_size(),
                                         config.ClusterMembers(0));
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(genesis->certificate.batch_digest,
            genesis->batch.ComputeDigest());
  EXPECT_EQ(genesis->certificate.merkle_root, genesis->batch.ro.merkle_root);
  EXPECT_EQ(genesis->certificate.ro_digest, genesis->batch.ro.ComputeDigest());
  // Followers verify the same certificate object they logged.
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    const auto& flog = system.node(0, i)->log();
    ASSERT_GE(flog.size(), 1u) << "replica " << i;
    EXPECT_TRUE(flog.Get(0)
                    .value()
                    ->certificate
                    .Verify(system.verifier(), config.certificate_size(),
                            config.ClusterMembers(0))
                    .ok())
        << "replica " << i;
  }
}

// One batch in flight: a follower that lags behind the leader validates
// and votes only on the slot after its log tail. Commit QCs reach one
// follower 40 ms late, so under a serial write chain the next proposal
// arrives before the follower has decided its predecessor; the proposal
// must wait in its instance until the late commit QC decides the
// predecessor.
TEST_F(LinearVoteTest, LaggingFollowerVotesOnlyTheSlotAfterItsTail) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);

  const crypto::NodeId lagging = config.ReplicaNode(0, 3);
  const core::TransEdgeNode* follower = system.node(0, 3);
  std::vector<sim::MessagePtr> released;
  int votes = 0;
  int votes_ahead = 0;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId to, const sim::MessagePtr& msg) {
        const auto type = static_cast<wire::MessageType>(msg->type());
        if (from == lagging && type == wire::MessageType::kLinearVote &&
            static_cast<const wire::LinearVoteMsg&>(*msg).phase ==
                wire::kLinearPhasePrepare) {
          ++votes;
          if (static_cast<const wire::LinearVoteMsg&>(*msg).batch_id !=
              follower->log().LastBatchId() + 1) {
            ++votes_ahead;
          }
        }
        if (to != lagging || type != wire::MessageType::kLinearQc ||
            static_cast<const wire::LinearQcMsg&>(*msg).phase !=
                wire::kLinearPhaseCommit) {
          return true;
        }
        auto it = std::find(released.begin(), released.end(), msg);
        if (it != released.end()) {
          released.erase(it);
          return true;
        }
        system.env().Schedule(sim::Millis(40), [&, from, msg] {
          released.push_back(msg);
          system.env().network().SendAt(system.env().now(), from, lagging,
                                        msg);
        });
        return false;
      });
  system.Start();

  // A serial chain: each write is issued once the previous one commits,
  // so every write takes a batch of its own.
  Client* client = system.AddClient();
  int committed = 0;
  std::function<void(int)> chain = [&](int step) {
    if (step >= 20) return;
    client->ExecuteReadWrite(
        {}, {WriteOp{data[static_cast<size_t>(step)].first, ToBytes("c")}},
        [&, step](RwResult r) {
          EXPECT_TRUE(r.committed) << r.reason;
          if (r.committed) ++committed;
          chain(step + 1);
        });
  };
  system.env().Schedule(sim::Millis(30), [&chain] { chain(0); });
  system.env().RunUntil(sim::Seconds(3));

  EXPECT_EQ(committed, 20);
  EXPECT_EQ(votes, 21);  // One per batch: genesis and one per write.
  EXPECT_EQ(votes_ahead, 0) << "of " << votes << " prepare votes";
  // The lagging follower caught up on every write, with no view change.
  const storage::SmrLog& reference = system.node(0, 0)->log();
  ASSERT_EQ(follower->log().LastBatchId(), reference.LastBatchId());
  for (BatchId b = 0; b <= reference.LastBatchId(); ++b) {
    EXPECT_EQ(follower->log().Get(b).value()->batch.ComputeDigest(),
              reference.Get(b).value()->batch.ComputeDigest())
        << "batch " << b;
  }
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// The shared view-change protocol, under both engines
// ---------------------------------------------------------------------------

/// Drops every view-0 commit-phase message that is not addressed to the
/// first leader: the PBFT Commit broadcasts, the linear engine's commit
/// QC. The view-0 leader decides, and nobody else does before the view
/// changes.
sim::Network::LinkFilter CommitsReachOnlyFirstLeader(
    const SystemConfig& config) {
  const crypto::NodeId first_leader = config.ReplicaNode(0, 0);
  return [first_leader](sim::ActorId, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    if (to == first_leader) return true;
    switch (static_cast<wire::MessageType>(msg->type())) {
      case wire::MessageType::kCommit:
        return static_cast<const wire::CommitMsg&>(*msg).view != 0;
      case wire::MessageType::kLinearQc: {
        const auto& qc = static_cast<const wire::LinearQcMsg&>(*msg);
        return qc.view != 0 || qc.phase != wire::kLinearPhaseCommit;
      }
      default:
        return true;
    }
  };
}

/// Every pair of partition-0 replicas agrees on its common log prefix.
void ExpectNoFork(System& system, const SystemConfig& config) {
  const uint32_t n = config.replicas_per_cluster();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const auto& a = system.node(0, i)->log();
      const auto& b = system.node(0, j)->log();
      BatchId common = std::min(a.LastBatchId(), b.LastBatchId());
      for (BatchId id = 0; id <= common; ++id) {
        EXPECT_EQ(a.Get(id).value()->batch.ComputeDigest(),
                  b.Get(id).value()->batch.ComputeDigest())
            << "fork at batch " << id << " between replicas " << i << " and "
            << j;
      }
    }
  }
}

/// Every certificate partition-0 replica `i` logged verifies at quorum
/// size, for `i` in [first, n).
void ExpectLoggedQcsVerify(System& system, const SystemConfig& config,
                           uint32_t first) {
  for (uint32_t i = first; i < config.replicas_per_cluster(); ++i) {
    const auto& log = system.node(0, i)->log();
    for (BatchId b = 0; log.size() > 0 && b <= log.LastBatchId(); ++b) {
      EXPECT_TRUE(log.Get(b)
                      .value()
                      ->certificate
                      .Verify(system.verifier(), config.quorum_size(),
                              config.ClusterMembers(0))
                      .ok())
          << "replica " << i << " batch " << b;
    }
  }
}

bool SomeViewAdvanced(System& system, const SystemConfig& config) {
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    if (system.node(0, i)->view() > 0) return true;
  }
  return false;
}

class ViewChangeTest : public ::testing::TestWithParam<ConsensusKind> {};
INSTANTIATE_TEST_SUITE_P(
    Engines, ViewChangeTest,
    ::testing::Values(ConsensusKind::kPbft, ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

TEST_P(ViewChangeTest, ViewChangeElectsNewLeaderAfterLeaderCrash) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  // Let genesis commit under the original leader first.
  system.env().RunUntil(sim::Millis(50));
  ASSERT_GE(system.node(0, 0)->log().size(), 1u);

  // Crash the leader, then submit a transaction. A follower receiving the
  // forwarded request cannot decide; timers fire; a new leader takes over
  // and the client's retry succeeds.
  system.env().network().Disconnect(config.ReplicaNode(0, 0));
  system.node(0, 0)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(100), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("post-vc")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  EXPECT_TRUE(SomeViewAdvanced(system, config));
  // The write survived on the remaining replicas.
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    auto v = system.node(0, i)->store().Get(data[0].first);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(ToString(v->value), "post-vc");
  }
}

TEST_P(ViewChangeTest, DelayedCommitQcDoesNotForkTheLog) {
  // Regression for the view-change safety hole: the view-0 leader
  // decides, but no other replica learns the decision before its
  // progress timer fires. Without the prepare-QC lock carried through the
  // view change, the new leader would propose a *different* batch at the
  // same id and permanently fork the old leader's log. Eight writers keep
  // the leader proposing while the commit messages vanish, so the old
  // leader may have decided several batches the others hold only locks
  // for: the new leader must re-propose each of them, one slot at a time.
  for (int writers : {1, 8}) {
    SCOPED_TRACE(std::to_string(writers) + " writers");
    SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
    System system(config, FastEnv());
    auto data = TestData(1);
    system.Preload(data);
    system.env().network().SetLinkFilter(CommitsReachOnlyFirstLeader(config));
    system.Start();

    Client* client = system.AddClient();
    int committed = 0;
    system.env().Schedule(sim::Millis(30), [&] {
      for (int i = 0; i < writers; ++i) {
        client->ExecuteReadWrite(
            {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("survive")}},
            [&](RwResult r) {
              EXPECT_TRUE(r.committed) << r.reason;
              if (r.committed) ++committed;
            });
      }
    });
    system.env().RunUntil(sim::Seconds(30));
    EXPECT_EQ(committed, writers);

    // The old leader decided batches the others only saw after the view
    // change; every pair of logs must still agree on their common prefix
    // (in particular at id 0, which node 0 decided alone in view 0).
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      ASSERT_GT(system.node(0, i)->log().size(), 0u) << "replica " << i;
    }
    EXPECT_TRUE(SomeViewAdvanced(system, config));
    ExpectNoFork(system, config);
  }
}

// A byzantine replica reports its (real) locks with inflated view
// numbers during the view change, trying to outrank genuinely newer
// locks. The view-bind quorum embedded in each prepare QC certifies the
// true view, so the new leader drops the inflated reports and the
// cluster converges on the honestly locked batches.
TEST_P(ViewChangeTest, InflatedLockViewReportCannotHijackViewChange) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  // Replicas lock but never decide, so the view change happens with live
  // locks to report.
  system.env().network().SetLinkFilter(CommitsReachOnlyFirstLeader(config));
  system.Start();
  system.node(0, 2)->SetByzantineBehavior(
      core::ByzantineBehavior::kInflateLockView);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("honest")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  EXPECT_TRUE(SomeViewAdvanced(system, config));
  // No fork, and every logged certificate still verifies at quorum size.
  ExpectNoFork(system, config);
  ExpectLoggedQcsVerify(system, config, /*first=*/1);
}

TEST_P(ViewChangeTest, LaggingReplicaCatchesUpWithoutViewChange) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  system.env().RunUntil(sim::Millis(50));  // Genesis decided everywhere.

  const crypto::NodeId lagging = config.ReplicaNode(0, 2);
  system.env().network().Disconnect(lagging);

  Client* client = system.AddClient();
  int committed = 0;
  system.env().Schedule(sim::Millis(10), [&] {
    for (int i = 0; i < 5; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("gap")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Millis(400));
  EXPECT_EQ(committed, 5);
  EXPECT_LT(system.node(0, 2)->log().size(), system.node(0, 0)->log().size());

  system.env().network().Reconnect(lagging);
  // One more write makes the lagging replica see a proposal beyond its
  // log; its progress timer then requests a view change whose
  // last_committed triggers the catch-up transfer instead.
  system.env().Schedule(sim::Millis(10), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[10].first, ToBytes("after")}},
                             [&](RwResult r) {
                               if (r.committed) ++committed;
                             });
  });
  system.env().RunUntil(sim::Seconds(2));

  EXPECT_EQ(committed, 6);
  const auto& reference = system.node(0, 0)->log();
  const auto& lag_log = system.node(0, 2)->log();
  ASSERT_EQ(lag_log.size(), reference.size());
  for (BatchId id = 0; id <= reference.LastBatchId(); ++id) {
    EXPECT_EQ(lag_log.Get(id).value()->batch.ComputeDigest(),
              reference.Get(id).value()->batch.ComputeDigest())
        << "batch " << id;
  }
  // The transfer sufficed; nobody had to change views.
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }
  auto v = system.node(0, 2)->store().Get(data[10].first);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToString(v->value), "after");
}

TEST_P(ViewChangeTest, EquivocatingLeaderCannotCertifyEitherVariant) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  // Equivocate from the start: not even genesis can gather a quorum of
  // matching votes, and the cluster elects an honest leader instead.
  system.node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("honest")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  // No batch proposed by the equivocator was certified on any honest
  // replica; once an honest leader takes over the write commits.
  ExpectLoggedQcsVerify(system, config, /*first=*/1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
}

// A forged catch-up entry that reaches a lagging replica ahead of the
// genuine transfer is dropped on receipt: it neither takes the place the
// genuine entry needs nor delays the catch-up. The genuine entry for the
// first missing position is held back until the rest of the transfer has
// arrived, so every later entry must wait for it.
TEST_P(ViewChangeTest, ForgedCatchUpEntryDoesNotBlockLaggingReplica) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  system.env().RunUntil(sim::Millis(50));

  const crypto::NodeId lagging = config.ReplicaNode(0, 2);
  system.env().network().Disconnect(lagging);
  Client* client = system.AddClient();
  for (int i = 0; i < 5; ++i) {  // Spaced out: one batch each.
    system.env().Schedule(sim::Millis(10 + 20 * i), [&, i] {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("gap")}},
          [](RwResult) {});
    });
  }
  system.env().RunUntil(sim::Millis(400));
  const storage::SmrLog& reference = system.node(0, 0)->log();
  const BatchId next = system.node(0, 2)->log().LastBatchId() + 1;
  ASSERT_GT(reference.LastBatchId(), next);

  sim::MessagePtr held;
  sim::ActorId held_from = 0;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId to, const sim::MessagePtr& msg) {
        if (held != nullptr || to != lagging ||
            static_cast<wire::MessageType>(msg->type()) !=
                wire::MessageType::kLinearCatchUp ||
            static_cast<const wire::LinearCatchUpMsg&>(*msg).batch.id !=
                next) {
          return true;
        }
        held = msg;
        held_from = from;
        return false;
      });
  system.env().network().Reconnect(lagging);

  // Ahead of the transfer, an outsider sends every missing position past
  // the first as a tampered batch under the genuine certificate.
  for (BatchId id = next + 1; id <= reference.LastBatchId(); ++id) {
    wire::LinearCatchUpMsg forged;
    forged.batch = reference.Get(id).value()->batch;
    forged.batch.ro.timestamp_us += 1;
    forged.cert = reference.Get(id).value()->certificate;
    system.env().network().SendAt(system.env().now(), client->id(), lagging,
                                  wire::ShareMsg(std::move(forged)));
  }
  // A proposal beyond its log makes the lagging replica ask for the
  // transfer when its progress timer fires.
  system.env().Schedule(sim::Millis(10), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[10].first, ToBytes("after")}},
                             [](RwResult) {});
  });
  system.env().RunUntil(sim::Millis(600));
  ASSERT_NE(held, nullptr) << "no catch-up transfer was served";

  system.env().network().SendAt(system.env().now(), held_from, lagging, held);
  // Well inside one progress timeout: no second transfer can help.
  system.env().RunUntil(system.env().now() + sim::Millis(20));
  const storage::SmrLog& lag_log = system.node(0, 2)->log();
  ASSERT_EQ(lag_log.LastBatchId(), reference.LastBatchId());
  for (BatchId id = 0; id <= reference.LastBatchId(); ++id) {
    EXPECT_EQ(lag_log.Get(id).value()->batch.ComputeDigest(),
              reference.Get(id).value()->batch.ComputeDigest())
        << "batch " << id;
  }
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }
}

// View-change requests from outside the cluster, or with a signature that
// does not verify, count for nothing: the view stays put, and the
// cluster keeps committing.
TEST_P(ViewChangeTest, ForgedViewChangeRequestsCannotMoveTheView) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/2);
  System system(config, FastEnv());
  auto data = TestData(2);
  system.Preload(data);
  system.Start();
  system.env().RunUntil(sim::Millis(50));
  Client* client = system.AddClient();

  std::vector<sim::ActorId> forgers = {client->id()};
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    forgers.push_back(config.ReplicaNode(1, i));  // Another cluster.
    forgers.push_back(config.ReplicaNode(0, i));  // Members, bad signature.
  }
  for (uint64_t target = 1; target <= 4; ++target) {
    for (sim::ActorId from : forgers) {
      for (crypto::NodeId to : config.ClusterMembers(0)) {
        wire::LinearViewChangeMsg msg;
        msg.new_view = target;
        msg.last_committed = system.node(0, 0)->log().LastBatchId();
        msg.signature = crypto::Signature{
            static_cast<crypto::NodeId>(from),
            crypto::Sha256::Hash("forged-" + std::to_string(from))};
        system.env().network().SendAt(system.env().now(), from, to,
                                      wire::ShareMsg(std::move(msg)));
      }
    }
  }
  system.env().RunUntil(sim::Millis(300));
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }

  std::optional<RwResult> result;
  client->ExecuteReadWrite(
      {}, {WriteOp{data[0].first, ToBytes("still-live")}},
      [&](RwResult r) { result = std::move(r); });
  system.env().RunUntil(sim::Seconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Message complexity: the reason the linear engine exists
// ---------------------------------------------------------------------------

TEST(ConsensusInterfaceTest, LinearVoteSendsFewerMessagesPerBatch) {
  auto msgs_per_batch = [](ConsensusKind kind) {
    SystemConfig config = BaseConfig(kind, /*partitions=*/1, /*f=*/2);
    System system(config, FastEnv());
    auto data = TestData(1);
    system.Preload(data);
    system.Start();
    Client* client = system.AddClient();
    system.env().Schedule(sim::Millis(30), [&] {
      for (int i = 0; i < 30; ++i) {
        client->ExecuteReadWrite(
            {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("w")}},
            [](RwResult) {});
      }
    });
    system.env().RunUntil(sim::Seconds(2));

    uint64_t msgs = 0;
    uint64_t batches = system.node(0, 0)->stats().batches_decided;
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      msgs += system.node(0, i)->stats().consensus_msgs_sent;
    }
    EXPECT_GT(batches, 0u);
    return static_cast<double>(msgs) / static_cast<double>(batches);
  };

  double pbft = msgs_per_batch(ConsensusKind::kPbft);
  double linear = msgs_per_batch(ConsensusKind::kLinearVote);
  // n = 7: PBFT ≈ n-1 + 2·n·(n-1) ≈ 90 per batch; linear ≈ 5·(n-1) = 30.
  EXPECT_LT(linear, pbft / 2.0)
      << "linear=" << linear << " pbft=" << pbft;
}

}  // namespace
}  // namespace transedge
