// Read-only protocol tests: Algorithm 2 (dependency verification), the
// targeted second round, Merkle-authenticated responses, parked requests,
// the two-round guarantee (Theorem 4.6), and failover: rotated leaders
// and followers that answer reads themselves.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using txn::ComputeUnsatisfiedDependencies;
using txn::RoPartitionView;
using core::RoResult;
using core::RwResult;
using core::System;
using core::SystemConfig;

// --- Algorithm 2 at the unit level -------------------------------------------

txn::CdVector Cd(std::vector<BatchId> entries) {
  txn::CdVector v(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    v.Set(static_cast<PartitionId>(i), entries[i]);
  }
  return v;
}

TEST(Algorithm2Test, ConsistentSnapshotHasNoMissingDeps) {
  std::map<PartitionId, RoPartitionView> views;
  views[0] = {Cd({4, 2, kNoBatch}), 3};
  views[1] = {Cd({kNoBatch, 5, kNoBatch}), 2};
  views[2] = {Cd({kNoBatch, kNoBatch, 9}), 1};
  // 0 depends on 1 up to batch 2; 1's LCE is 2 -> satisfied.
  EXPECT_TRUE(ComputeUnsatisfiedDependencies(views).empty());
}

TEST(Algorithm2Test, DetectsTheFigure1Inconsistency) {
  // The paper's motivating example: t_r read X at batch 4 (which depends
  // on Y's prepare batch 4) but read Y at a state whose LCE is only 2.
  std::map<PartitionId, RoPartitionView> views;
  views[0] = {Cd({4, 4}), 2};       // X: CD says "Y up to 4".
  views[1] = {Cd({kNoBatch, 2}), 2};  // Y: LCE 2 < 4 -> unsatisfied.
  auto needed = ComputeUnsatisfiedDependencies(views);
  ASSERT_EQ(needed.size(), 1u);
  EXPECT_EQ(needed.begin()->first, 1u);
  EXPECT_EQ(needed.begin()->second, 4);
}

TEST(Algorithm2Test, TakesMaxOverDemandingPartitions) {
  std::map<PartitionId, RoPartitionView> views;
  views[0] = {Cd({0, 7, kNoBatch}), 10};
  views[1] = {Cd({kNoBatch, 1, kNoBatch}), 2};
  views[2] = {Cd({kNoBatch, 9, 0}), 10};
  auto needed = ComputeUnsatisfiedDependencies(views);
  ASSERT_EQ(needed.size(), 1u);
  EXPECT_EQ(needed[1], 9);  // max(7, 9)
}

TEST(Algorithm2Test, EqualLceSatisfiesDependency) {
  std::map<PartitionId, RoPartitionView> views;
  views[0] = {Cd({0, 6}), 0};
  views[1] = {Cd({kNoBatch, 6}), 6};  // LCE == dep -> satisfied.
  EXPECT_TRUE(ComputeUnsatisfiedDependencies(views).empty());
}

TEST(Algorithm2Test, NoDependencyEntriesMeanNoWork) {
  std::map<PartitionId, RoPartitionView> views;
  views[0] = {Cd({3, kNoBatch}), kNoBatch};
  views[1] = {Cd({kNoBatch, 5}), kNoBatch};
  EXPECT_TRUE(ComputeUnsatisfiedDependencies(views).empty());
}

// --- End-to-end ----------------------------------------------------------------

struct Fixture {
  SystemConfig config;
  sim::EnvironmentOptions env_opts;
  std::unique_ptr<System> system;
  std::vector<std::pair<Key, Value>> data;
  storage::PartitionMap pmap;

  explicit Fixture(uint64_t seed = 21,
                   sim::Time cross_latency = sim::Millis(1),
                   bool strict_ro = false)
      : pmap(3) {
    config.num_partitions = 3;
    config.f = 1;
    config.batch_interval = sim::Millis(5);
    config.merkle_depth = 8;
    config.strict_ro_rounds = strict_ro;
    env_opts.seed = seed;
    env_opts.inter_site_latency = cross_latency;
    system = std::make_unique<System>(config, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 300;
    wopts.value_size = 8;
    data = workload::KeySpace(wopts, 3).InitialData();
    system->Preload(data);
    system->Start();
  }

  Key KeyIn(PartitionId p, size_t skip = 0) {
    for (const auto& [key, value] : data) {
      if (pmap.OwnerOf(key) == p) {
        if (skip == 0) return key;
        --skip;
      }
    }
    ADD_FAILURE() << "no key in partition " << p;
    return "";
  }
};

TEST(ReadOnlyTest, PairedWritesAreNeverTornAcrossPartitions) {
  // The Figure 1 invariant, live: distributed transactions write matching
  // values to (x in X, y in Y); every read-only transaction must observe
  // x == y, whatever interleaving occurs. This is exactly the anomaly
  // Merkle trees alone cannot prevent and CD vectors do.
  Fixture fx(/*seed=*/31, /*cross_latency=*/sim::Millis(8));
  Key kx = fx.KeyIn(0), ky = fx.KeyIn(1);
  Client* writer = fx.system->AddClient();
  Client* reader = fx.system->AddClient();

  // Writer: continuous stream of paired writes v1, v2, ...
  int version = 0;
  std::function<void()> write_next = [&] {
    if (fx.system->env().now() > sim::Seconds(4)) return;
    ++version;
    std::string v = "v" + std::to_string(version);
    writer->ExecuteReadWrite(
        {}, {WriteOp{kx, ToBytes(v)}, WriteOp{ky, ToBytes(v)}},
        [&](RwResult) { write_next(); });
  };

  // Reader: continuous read-only transactions over {x, y}. Before the
  // first paired write commits, both keys still hold their (different)
  // preload values; the invariant applies once versioned values ("v...")
  // appear on either key.
  int reads = 0, two_rounds = 0;
  std::function<void()> read_next = [&] {
    if (fx.system->env().now() > sim::Seconds(4)) return;
    reader->ExecuteReadOnly({kx, ky}, [&](RoResult r) {
      ASSERT_TRUE(r.status.ok()) << r.status;
      ASSERT_TRUE(r.values[kx].has_value());
      ASSERT_TRUE(r.values[ky].has_value());
      std::string x = ToString(*r.values[kx]);
      std::string y = ToString(*r.values[ky]);
      if (x.starts_with("v") || y.starts_with("v")) {
        EXPECT_EQ(x, y) << "torn read at simulated time "
                        << fx.system->env().now();
      }
      EXPECT_FALSE(r.needed_third_round);
      ++reads;
      if (r.rounds > 1) ++two_rounds;
      read_next();
    });
  };

  fx.system->env().Schedule(sim::Millis(30), [&] {
    write_next();
    read_next();
  });
  fx.system->env().RunUntil(sim::Seconds(8));

  EXPECT_GT(version, 20);
  EXPECT_GT(reads, 20);
  // With 8 ms between clusters, the commit-record propagation window is
  // wide enough that some reads needed the second round.
  EXPECT_GT(two_rounds, 0) << "expected at least one two-round read";
}

TEST(ReadOnlyTest, SecondRoundRepliesAreFlaggedAndServeHistoricalState) {
  Fixture fx(/*seed=*/33, /*cross_latency=*/sim::Millis(8));
  Key kx = fx.KeyIn(0), ky = fx.KeyIn(1);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite(
        {}, {WriteOp{kx, ToBytes("n")}, WriteOp{ky, ToBytes("n")}},
        [&](RwResult r) {
          ASSERT_TRUE(r.committed);
          // Fire the read immediately: the coordinator committed but the
          // participant has not — prime round-2 territory.
          client->ExecuteReadOnly({kx, ky},
                                  [&](RoResult r2) { ro = std::move(r2); });
        });
  });
  fx.system->env().RunUntil(sim::Seconds(6));

  ASSERT_TRUE(ro.has_value());
  ASSERT_TRUE(ro->status.ok()) << ro->status;
  EXPECT_EQ(ToString(*ro->values[kx]), ToString(*ro->values[ky]));
  EXPECT_FALSE(ro->needed_third_round);
}

// Runs overlapping paired writers plus a multi-partition reader; returns
// (reads completed, reader stats).
int RunCrossGroupLoad(Fixture& fx, Client* reader, int* max_rounds) {
  std::vector<Client*> writers;
  for (int i = 0; i < 4; ++i) writers.push_back(fx.system->AddClient());

  // The `loops` vector owns the loop closures until RunUntil below
  // returns; the closures themselves hold only raw self-pointers (a
  // self-owning shared_ptr capture would be a leaked cycle).
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (size_t w = 0; w < writers.size(); ++w) {
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    auto* loop_fn = loop.get();
    *loop = [&fx, w, loop_fn, writers] {
      if (fx.system->env().now() > sim::Seconds(4)) return;
      Key a = fx.KeyIn(static_cast<PartitionId>(w % 3), w);
      Key b = fx.KeyIn(static_cast<PartitionId>((w + 1) % 3), w);
      writers[w]->ExecuteReadWrite(
          {}, {WriteOp{a, ToBytes("x")}, WriteOp{b, ToBytes("x")}},
          [loop_fn](RwResult) { (*loop_fn)(); });
    };
    fx.system->env().Schedule(sim::Millis(30), *loop);
  }

  auto completed = std::make_shared<int>(0);
  auto read_loop = std::make_shared<std::function<void()>>();
  auto* read_fn = read_loop.get();
  *read_loop = [&fx, reader, completed, max_rounds, read_fn] {
    if (fx.system->env().now() > sim::Seconds(4)) return;
    std::vector<Key> keys{fx.KeyIn(0), fx.KeyIn(1), fx.KeyIn(2)};
    reader->ExecuteReadOnly(keys, [completed, max_rounds,
                                   read_fn](RoResult r) {
      ASSERT_TRUE(r.status.ok()) << r.status;
      *max_rounds = std::max(*max_rounds, r.rounds);
      ++*completed;
      (*read_fn)();
    });
  };
  fx.system->env().Schedule(sim::Millis(40), *read_loop);
  fx.system->env().RunUntil(sim::Seconds(8));
  return *completed;
}

TEST(ReadOnlyTest, PaperModeTerminatesAfterTwoRounds) {
  // The paper's protocol: at most two rounds, always (Theorem 4.6). The
  // residual-dependency diagnostic may fire under cross-group commits —
  // the corner SystemConfig::strict_ro_rounds documents — but must stay
  // rare here.
  Fixture fx(/*seed=*/35, /*cross_latency=*/sim::Millis(6));
  Client* reader = fx.system->AddClient();
  int max_rounds = 0;
  int completed = RunCrossGroupLoad(fx, reader, &max_rounds);

  EXPECT_GT(completed, 10);
  EXPECT_LE(max_rounds, 2);
  // The residual corner is rare: well under 10% of reads.
  EXPECT_LE(reader->stats().ro_third_round_would_be_needed,
            static_cast<uint64_t>(completed) / 10);
}

TEST(ReadOnlyTest, StrictModeSettlesToConsistency) {
  // Strict mode (an extension over the paper): keep issuing targeted
  // rounds until Algorithm 2 passes. Always settles within a few rounds
  // and never reports residual dependencies.
  Fixture fx(/*seed=*/35, /*cross_latency=*/sim::Millis(6),
             /*strict_ro=*/true);
  Client* reader = fx.system->AddClient();
  int max_rounds = 0;
  int completed = RunCrossGroupLoad(fx, reader, &max_rounds);

  EXPECT_GT(completed, 10);
  EXPECT_LE(max_rounds, core::Client::kMaxStrictRoRounds);
  EXPECT_EQ(reader->stats().ro_third_round_would_be_needed, 0u);
}

TEST(ReadOnlyTest, CommitFreedomOnlyLeadersAnswer) {
  // Commit-freedom: a read-only transaction touches one node per
  // accessed partition and runs no consensus. We check that serving a
  // read-only burst creates no new batches beyond background cadence.
  Fixture fx;
  Client* client = fx.system->AddClient();
  fx.system->env().RunUntil(sim::Millis(100));
  uint64_t batches_before = fx.system->TotalBatches();

  int completed = 0;
  fx.system->env().Schedule(sim::Millis(5), [&] {
    for (int i = 0; i < 50; ++i) {
      client->ExecuteReadOnly({fx.KeyIn(0), fx.KeyIn(1), fx.KeyIn(2)},
                              [&](RoResult r) {
                                ASSERT_TRUE(r.status.ok());
                                ++completed;
                              });
    }
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  EXPECT_EQ(completed, 50);
  // No read-only transaction produced a batch: the log only advances if
  // read-write work arrives (it did not).
  EXPECT_EQ(fx.system->TotalBatches(), batches_before);
}

TEST(ReadOnlyTest, ValuesMatchVersionedStoreState) {
  Fixture fx;
  Client* client = fx.system->AddClient();
  Key k = fx.KeyIn(2);

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({k}, [&](RoResult r) { ro = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(ro.has_value());
  ASSERT_TRUE(ro->status.ok());
  auto stored = fx.system->node(2, 0)->store().Get(k);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*ro->values[k], stored->value);
}

TEST(ReadOnlyTest, AbsentKeyComesBackVerifiedAbsent) {
  Fixture fx;
  Client* client = fx.system->AddClient();

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({"never-written-key"},
                            [&](RoResult r) { ro = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(ro.has_value());
  ASSERT_TRUE(ro->status.ok()) << ro->status;  // Absence proof verified.
  ASSERT_TRUE(ro->values.count("never-written-key") > 0);
  EXPECT_FALSE(ro->values["never-written-key"].has_value());
}

TEST(ReadOnlyTest, NonInterferenceWithWriters) {
  // TransEdge read-only transactions must not abort writers (Table 1's
  // TransEdge row is all zeros).
  Fixture fx;
  Client* reader = fx.system->AddClient();
  Client* writer = fx.system->AddClient();
  Key k = fx.KeyIn(0);

  int writes_committed = 0, writes_aborted = 0, reads_done = 0;
  // Both loop objects outlive the run; closures capture raw
  // self-pointers to avoid a leaked shared_ptr cycle.
  auto write_loop = std::make_shared<std::function<void()>>();
  auto* write_fn = write_loop.get();
  *write_loop = [&, write_fn] {
    if (fx.system->env().now() > sim::Seconds(3)) return;
    writer->ExecuteReadWrite({}, {WriteOp{k, ToBytes("w")}},
                             [&, write_fn](RwResult r) {
                               r.committed ? ++writes_committed
                                           : ++writes_aborted;
                               (*write_fn)();
                             });
  };
  auto read_loop = std::make_shared<std::function<void()>>();
  auto* read_fn = read_loop.get();
  *read_loop = [&, read_fn] {
    if (fx.system->env().now() > sim::Seconds(3)) return;
    reader->ExecuteReadOnly({k}, [&, read_fn](RoResult r) {
      ASSERT_TRUE(r.status.ok());
      ++reads_done;
      (*read_fn)();
    });
  };
  fx.system->env().Schedule(sim::Millis(30), [&] {
    (*write_loop)();
    (*read_loop)();
  });
  fx.system->env().RunUntil(sim::Seconds(6));

  EXPECT_GT(writes_committed, 50);
  EXPECT_GT(reads_done, 50);
  EXPECT_EQ(writes_aborted, 0);  // Reads never blocked or aborted writes.
  EXPECT_EQ(fx.system->TotalRwAbortedByRoLocks(), 0u);
}

// Property sweep over seeds: the paired-write invariant holds for any
// interleaving the simulator produces.
class RoConsistencySeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoConsistencySeedTest, PairedWritesConsistentUnderSeed) {
  Fixture fx(GetParam(), sim::Millis(4));
  Key kx = fx.KeyIn(0, 3), ky = fx.KeyIn(2, 3);
  Client* writer = fx.system->AddClient();
  Client* reader = fx.system->AddClient();

  int version = 0, reads = 0;
  // Raw self-pointers instead of self-owning captures (leak-free).
  auto write_loop = std::make_shared<std::function<void()>>();
  auto* write_fn = write_loop.get();
  *write_loop = [&, write_fn] {
    if (fx.system->env().now() > sim::Seconds(2)) return;
    std::string v = "v" + std::to_string(++version);
    writer->ExecuteReadWrite(
        {}, {WriteOp{kx, ToBytes(v)}, WriteOp{ky, ToBytes(v)}},
        [write_fn](RwResult) { (*write_fn)(); });
  };
  auto read_loop = std::make_shared<std::function<void()>>();
  auto* read_fn = read_loop.get();
  *read_loop = [&, read_fn] {
    if (fx.system->env().now() > sim::Seconds(2)) return;
    reader->ExecuteReadOnly({kx, ky}, [&, read_fn](RoResult r) {
      ASSERT_TRUE(r.status.ok());
      std::string x = ToString(*r.values[kx]);
      std::string y = ToString(*r.values[ky]);
      if (x.starts_with("v") || y.starts_with("v")) {
        EXPECT_EQ(x, y);
      }
      EXPECT_FALSE(r.needed_third_round);
      ++reads;
      (*read_loop)();
    });
  };
  fx.system->env().Schedule(sim::Millis(30), [&] {
    (*write_loop)();
    (*read_loop)();
  });
  fx.system->env().RunUntil(sim::Seconds(5));
  EXPECT_GT(reads, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoConsistencySeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Incomplete certified replies -------------------------------------------
//
// A reply's certificate and proofs say nothing about *which* keys it
// answers. A faulty leader replays a genuine reply in place of partition
// 0's: with its entries left out, or as partition 1's certified reply
// claiming k0 is absent (partition 1's tree holds no partition-0 key, so
// the absence proof verifies against its certified root). Either way the
// read must fail, not finish without k0.

enum class IncompleteReply { kKeyLeftOut, kOtherPartition };

class IncompleteReplyTest : public ::testing::TestWithParam<IncompleteReply> {
};

TEST_P(IncompleteReplyTest, ReadFailsUnlessEveryRequestedKeyIsAnswered) {
  Fixture fx;
  Client* client = fx.system->AddClient();
  const Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);
  sim::Environment& env = fx.system->env();
  sim::Network& net = env.network();

  // Partition 0's genuine reply is dropped; a replay from the same
  // sender takes its place.
  std::optional<wire::RoReply> reply0, reply1;
  sim::ActorId sender0 = 0;
  sim::MessagePtr replay;
  auto send_replay = [&](sim::ActorId to) {
    wire::RoReply forged = *reply0;
    if (GetParam() == IncompleteReply::kKeyLeftOut) {
      forged.entries.clear();
    } else {
      forged = *reply1;
      forged.request_id = reply0->request_id;
    }
    replay = std::make_shared<const wire::RoReply>(std::move(forged));
    env.Schedule(0, [&, to] { net.Send(sender0, to, replay); });
  };
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    if (msg == replay ||
        static_cast<wire::MessageType>(msg->type()) !=
            wire::MessageType::kRoReply) {
      return true;
    }
    const auto& reply = static_cast<const wire::RoReply&>(*msg);
    bool keep = true;
    if (reply.partition == 0 && !reply0) {
      reply0 = reply;
      sender0 = from;
      keep = false;
    } else if (reply.partition == 1 && !reply1) {
      // Sent as served: the leader's tree is at the reply's batch.
      reply1 = reply;
      wire::AuthenticatedRead absent;
      absent.key = k0;
      absent.proof = merkle::MerkleTree::ProveAt(
                         fx.system->leader(1)->tree().GetSnapshot(), k0)
                         .value();
      reply1->entries = {absent};
    }
    const bool ready = GetParam() == IncompleteReply::kKeyLeftOut
                           ? reply0.has_value()
                           : reply0.has_value() && reply1.has_value();
    if (ready && replay == nullptr) send_replay(to);
    return keep;
  });

  std::optional<RoResult> ro;
  env.Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({k0, k1}, [&](RoResult r) { ro = std::move(r); });
  });
  env.RunUntil(sim::Seconds(2));

  ASSERT_NE(replay, nullptr);
  ASSERT_TRUE(ro.has_value());
  EXPECT_TRUE(ro->status.IsVerificationFailed())
      << ro->status << ", k0 answered: " << ro->values.count(k0);
  EXPECT_EQ(client->stats().ro_verification_failures, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Replays, IncompleteReplyTest,
    ::testing::Values(IncompleteReply::kKeyLeftOut,
                      IncompleteReply::kOtherPartition),
    [](const ::testing::TestParamInfo<IncompleteReply>& info) {
      return std::string(info.param == IncompleteReply::kKeyLeftOut
                             ? "KeyLeftOut"
                             : "OtherPartitionClaimsAbsence");
    });

// --- Failover ------------------------------------------------------------------
//
// A read that times out retries against rotated leaders. Partition 0's
// leader crashes; a write and a read of partition 0 then start. The
// write's retry fans out to the whole cluster, which elects a new
// leader, and the read's retry must find it instead of failing at its
// first timeout.
TEST(ReadOnlyFailoverTest, TimedOutReadRetriesAgainstRotatedLeader) {
  SystemConfig config;
  config.num_partitions = 2;
  config.f = 1;
  config.consensus_kind = core::ConsensusKind::kLinearVote;
  config.batch_interval = sim::Millis(5);
  config.merkle_depth = 8;
  config.client_timeout = sim::Millis(500);
  sim::EnvironmentOptions env_opts;
  env_opts.seed = 21;
  env_opts.inter_site_latency = sim::Millis(1);
  System system(config, env_opts);
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 8;
  auto data = workload::KeySpace(wopts, 2).InitialData();
  system.Preload(data);
  system.Start();
  storage::PartitionMap pmap(2);
  Key k0;
  for (const auto& [key, value] : data) {
    if (pmap.OwnerOf(key) == 0) {
      k0 = key;
      break;
    }
  }

  sim::Environment& env = system.env();
  env.Schedule(sim::Millis(50), [&] {
    env.network().Disconnect(config.ReplicaNode(0, 0));
    system.node(0, 0)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);
  });
  Client* writer = system.AddClient();
  Client* reader = system.AddClient();
  std::optional<RwResult> write;
  std::optional<RoResult> read;
  env.Schedule(sim::Millis(60), [&] {
    writer->ExecuteReadWrite({}, {WriteOp{k0, ToBytes("failover")}},
                             [&](RwResult r) { write = std::move(r); });
    reader->ExecuteReadOnly({k0}, [&](RoResult r) { read = std::move(r); });
  });
  env.RunUntil(sim::Seconds(5));

  ASSERT_TRUE(write.has_value());
  EXPECT_TRUE(write->committed) << write->reason;
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->status.ok()) << read->status;
  EXPECT_GT(read->latency, config.client_timeout);
  ASSERT_EQ(read->values.count(k0), 1u);
  EXPECT_TRUE(read->values.at(k0).has_value());
  EXPECT_EQ(reader->stats().timeouts, 0u);
}

// Records each read-only reply with the replica that sent it.
struct RoReplyProbe : sim::Actor {
  std::vector<std::pair<sim::ActorId, wire::RoReply>> replies;
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    if (static_cast<wire::MessageType>(msg->type()) ==
        wire::MessageType::kRoReply) {
      replies.emplace_back(from, static_cast<const wire::RoReply&>(*msg));
    }
  }
};

// Two partitions of f = 1 on the default timers, preloaded and started.
struct IdleCluster {
  SystemConfig config;
  std::unique_ptr<System> system;
  std::vector<std::pair<Key, Value>> data;

  explicit IdleCluster(core::ConsensusKind kind) {
    config.num_partitions = 2;
    config.f = 1;
    config.consensus_kind = kind;
    config.merkle_depth = 8;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = 5;
    system = std::make_unique<System>(config, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 200;
    wopts.value_size = 8;
    data = workload::KeySpace(wopts, 2).InitialData();
    system->Preload(data);
    system->Start();
  }

  Key KeyIn(PartitionId p) const {
    storage::PartitionMap pmap(config.num_partitions);
    for (const auto& [key, value] : data) {
      if (pmap.OwnerOf(key) == p) return key;
    }
    ADD_FAILURE() << "no key in partition " << p;
    return "";
  }

  // Registers `probe` as a client actor and returns its id.
  sim::ActorId Register(RoReplyProbe* probe) {
    const sim::ActorId id = config.ClientNode(1000);
    system->env().network().Register(id, /*site=*/0, probe);
    return id;
  }

  void ExpectCertified(const storage::BatchCertificate& certificate,
                       const std::vector<wire::AuthenticatedRead>& entries,
                       PartitionId p) const {
    EXPECT_TRUE(certificate
                    .Verify(system->verifier(), config.certificate_size(),
                            config.ClusterMembers(p))
                    .ok());
    EXPECT_TRUE(wire::VerifyReads(entries, certificate.merkle_root).ok());
  }
};

// A read-only request needs no log entry, and every replica holds the
// applied, certified state it reads, so a follower answers it itself.
// Were it forwarded, each follower would demand a batch that an idle
// leader never proposes, and the cluster would vote out leader after
// leader.
TEST(ReadOnlyFailoverTest, FollowersAnswerReadsOfAnIdleCluster) {
  for (core::ConsensusKind kind :
       {core::ConsensusKind::kPbft, core::ConsensusKind::kLinearVote}) {
    SCOPED_TRACE(core::ConsensusKindName(kind));
    IdleCluster cluster(kind);
    const SystemConfig& config = cluster.config;
    System& system = *cluster.system;
    const Key k0 = cluster.KeyIn(0);

    RoReplyProbe probe;
    const sim::ActorId probe_id = cluster.Register(&probe);
    system.env().Schedule(sim::Millis(500), [&] {
      for (uint32_t follower : {1u, 2u}) {
        wire::RoRequest request;
        request.request_id = follower;
        request.reply_to = probe_id;
        request.keys = {k0};
        system.env().network().Send(probe_id, config.ReplicaNode(0, follower),
                                    wire::ShareMsg(std::move(request)));
      }
    });
    system.env().RunUntil(sim::Seconds(30));

    ASSERT_EQ(probe.replies.size(), 2u);
    for (const auto& [from, reply] : probe.replies) {
      EXPECT_EQ(from, config.ReplicaNode(0, static_cast<uint32_t>(
                                                 reply.request_id)));
      ASSERT_NE(reply.batch_id, kNoBatch);
      EXPECT_EQ(reply.certificate.batch_id, reply.batch_id);
      cluster.ExpectCertified(reply.certificate, reply.entries, 0);
    }
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
    }
  }
}

// A view change leaves the read tier alone, under either engine.
class ReadOnlyViewTest
    : public ::testing::TestWithParam<core::ConsensusKind> {};

// A parked round-2 request waits, on the replica that parked it, for a
// batch whose LCE satisfies it, whatever the view: every replica keeps
// applying the same certified log after it adopts a new one. Here a
// follower parks the request, the leader crashes and the cluster moves
// to a new view, and the two-partition write that satisfies the request
// then commits under the new leader.
TEST_P(ReadOnlyViewTest, ParkedRoundTwoOnAFollowerSurvivesAViewChange) {
  IdleCluster cluster(GetParam());
  const SystemConfig& config = cluster.config;
  System& system = *cluster.system;
  sim::Environment& env = system.env();
  const Key k0 = cluster.KeyIn(0), k1 = cluster.KeyIn(1);
  env.RunUntil(sim::Millis(100));

  // Replica 2 stays a follower in views 0 and 1.
  core::TransEdgeNode* follower = system.node(0, 2);
  RoReplyProbe probe;
  const sim::ActorId probe_id = cluster.Register(&probe);
  wire::RoBatchRequest request;
  request.request_id = 0xbeef;
  request.reply_to = probe_id;
  request.keys = {k0};
  // One past the current LCE: parked until a distributed commit lands.
  const BatchId min_lce = follower->log().back().batch.ro.lce + 1;
  request.min_lce = min_lce;
  env.network().Send(probe_id, follower->id(),
                     wire::ShareMsg(std::move(request)));
  env.RunUntil(env.now() + sim::Millis(50));
  ASSERT_EQ(follower->stats().ro_round2_parked, 1u);

  // The leader crashes; a write of partition 0 times out on it, and its
  // retry makes the cluster elect a new one.
  system.CrashReplica(config.ReplicaNode(0, 0));
  Client* client = system.AddClient();
  std::optional<RwResult> local;
  client->ExecuteReadWrite({}, {WriteOp{k0, ToBytes("local")}},
                           [&](RwResult r) { local = std::move(r); });
  env.RunUntil(env.now() + sim::Seconds(10));
  ASSERT_TRUE(local.has_value());
  ASSERT_TRUE(local->committed) << local->reason;
  ASSERT_GT(follower->view(), 0u);
  ASSERT_FALSE(follower->IsLeader());
  EXPECT_TRUE(probe.replies.empty());

  // The dependency commits under the new leader.
  std::optional<RwResult> paired;
  client->ExecuteReadWrite(
      {}, {WriteOp{k0, ToBytes("x")}, WriteOp{k1, ToBytes("y")}},
      [&](RwResult r) { paired = std::move(r); });
  env.RunUntil(env.now() + sim::Seconds(10));
  ASSERT_TRUE(paired.has_value());
  ASSERT_TRUE(paired->committed) << paired->reason;

  ASSERT_EQ(probe.replies.size(), 1u);
  const auto& [from, reply] = probe.replies[0];
  EXPECT_EQ(from, follower->id());
  EXPECT_EQ(reply.request_id, 0xbeefu);
  EXPECT_TRUE(reply.second_round);
  ASSERT_NE(reply.batch_id, kNoBatch);
  EXPECT_GE(reply.lce, min_lce);
  EXPECT_EQ(reply.certificate.batch_id, reply.batch_id);
  cluster.ExpectCertified(reply.certificate, reply.entries, 0);
  EXPECT_EQ(follower->stats().ro_round2_aborted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ReadOnlyViewTest,
    ::testing::Values(core::ConsensusKind::kPbft,
                      core::ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<core::ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

}  // namespace
}  // namespace transedge
