// Distributed (2PC-over-BFT) transaction tests: prepare/commit flow,
// conflict aborts, prepare-group ordering, and CD-vector bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/system.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::RwResult;
using core::System;
using core::SystemConfig;

struct Fixture {
  SystemConfig config;
  std::unique_ptr<System> system;
  std::vector<std::pair<Key, Value>> data;
  storage::PartitionMap pmap;

  explicit Fixture(uint32_t partitions = 3, uint64_t seed = 5)
      : pmap(partitions) {
    config.num_partitions = partitions;
    config.f = 1;
    config.batch_interval = sim::Millis(5);
    config.merkle_depth = 8;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = seed;
    env_opts.inter_site_latency = sim::Millis(1);
    system = std::make_unique<System>(config, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 200;
    wopts.value_size = 8;
    data = workload::KeySpace(wopts, partitions).InitialData();
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

TEST(TwoPcTest, CommitSpanningAllClusters) {
  Fixture fx;
  Client* client = fx.system->AddClient();
  Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1), k2 = fx.KeyIn(2);

  std::optional<RwResult> result;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite(
        {k0, k1, k2},
        {WriteOp{k0, ToBytes("w0")}, WriteOp{k1, ToBytes("w1")},
         WriteOp{k2, ToBytes("w2")}},
        [&](RwResult r) { result = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(5));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  EXPECT_EQ(ToString(fx.system->node(0, 0)->store().Get(k0)->value), "w0");
  EXPECT_EQ(ToString(fx.system->node(1, 0)->store().Get(k1)->value), "w1");
  EXPECT_EQ(ToString(fx.system->node(2, 0)->store().Get(k2)->value), "w2");
}

TEST(TwoPcTest, StaleReadAbortsAtCoordinator) {
  Fixture fx;
  Client* client = fx.system->AddClient();
  Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);

  std::optional<RwResult> first, second;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    // First transaction reads k0 and k1, then writes k0.
    client->ExecuteReadWrite({k0, k1}, {WriteOp{k0, ToBytes("first")}},
                             [&](RwResult r) {
                               first = std::move(r);
                               // Second transaction reads *its own stale
                               // snapshot* — we fake staleness by writing
                               // again with versions from before.
                             });
  });
  fx.system->env().RunUntil(sim::Seconds(3));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->committed);

  // Craft a transaction with an outdated read version directly.
  Transaction txn;
  txn.id = MakeTxnId(9999, 1);
  txn.read_set.push_back(ReadOp{k0, 0});  // k0 was overwritten since v0.
  txn.write_set.push_back(WriteOp{k1, ToBytes("second")});
  txn.participants = fx.pmap.ParticipantsOf(txn.read_set, txn.write_set);
  txn.coordinator = fx.pmap.OwnerOf(k0);

  auto msg = std::make_shared<wire::CommitRequest>();
  msg->reply_to = client->id();
  msg->txn = txn;
  // Send straight to the coordinator's leader.
  fx.system->env().network().Send(
      client->id(), fx.config.LeaderOf(txn.coordinator, 0), msg);
  fx.system->env().RunUntil(sim::Seconds(6));

  // The stale transaction must not have applied its write.
  EXPECT_NE(ToString(fx.system->node(fx.pmap.OwnerOf(k1), 0)
                         ->store()
                         .Get(k1)
                         ->value),
            "second");
}

TEST(TwoPcTest, ConflictingConcurrentDistributedTxnsDoNotBothCommit) {
  Fixture fx;
  Client* c1 = fx.system->AddClient();
  Client* c2 = fx.system->AddClient();
  Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);

  std::optional<RwResult> r1, r2;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    c1->ExecuteReadWrite({k0, k1}, {WriteOp{k0, ToBytes("c1")},
                                    WriteOp{k1, ToBytes("c1")}},
                         [&](RwResult r) { r1 = std::move(r); });
    c2->ExecuteReadWrite({k0, k1}, {WriteOp{k0, ToBytes("c2")},
                                    WriteOp{k1, ToBytes("c2")}},
                         [&](RwResult r) { r2 = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(5));

  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  // OCC admits at most one of two conflicting concurrent transactions.
  EXPECT_FALSE(r1->committed && r2->committed);
  EXPECT_TRUE(r1->committed || r2->committed);

  // Whichever committed is the value present on both partitions.
  std::string winner = r1->committed ? "c1" : "c2";
  EXPECT_EQ(ToString(fx.system->node(0, 0)->store().Get(k0)->value), winner);
  EXPECT_EQ(ToString(fx.system->node(1, 0)->store().Get(k1)->value), winner);
}

TEST(TwoPcTest, CommitRecordsCarryParticipantCdVectors) {
  Fixture fx;
  Client* client = fx.system->AddClient();
  Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);

  std::optional<RwResult> result;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{k0, ToBytes("x")},
                                  WriteOp{k1, ToBytes("y")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(5));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->committed);

  // Find the commit record for this transaction on partition 0's log.
  bool found = false;
  const auto& log = fx.system->node(0, 0)->log();
  for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
    for (const storage::CommitRecord& rec :
         log.Get(b).value()->batch.committed) {
      if (rec.txn_id != result->txn_id) continue;
      found = true;
      EXPECT_TRUE(rec.committed);
      // Both participants reported their prepare batch + CD vector.
      EXPECT_EQ(rec.participant_info.size(), 2u);
      for (const storage::PreparedInfo& info : rec.participant_info) {
        EXPECT_TRUE(info.vote);
        EXPECT_GE(info.prepared_in_batch, 0);
        EXPECT_EQ(info.cd_vector.size(), fx.config.num_partitions);
      }
      // Algorithm 1: the committing batch's CD vector must point at the
      // partner's prepare batch.
      const storage::Batch& batch = log.Get(b).value()->batch;
      for (const storage::PreparedInfo& info : rec.participant_info) {
        if (info.partition == 0) continue;
        EXPECT_GE(batch.ro.cd_vector.Get(info.partition),
                  info.prepared_in_batch);
      }
      // The LCE equals the prepare batch at this partition.
      EXPECT_EQ(batch.ro.lce, rec.prepared_in_batch);
    }
  }
  EXPECT_TRUE(found) << "commit record not found in partition 0 log";
}

TEST(TwoPcTest, PrepareGroupsCommitInOrder) {
  // Definition 4.1: commit records appear in prepare-batch order in every
  // log, never interleaved out of order.
  Fixture fx(3, /*seed=*/11);
  std::vector<Client*> clients;
  for (int i = 0; i < 8; ++i) clients.push_back(fx.system->AddClient());

  int done = 0;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    for (size_t i = 0; i < clients.size(); ++i) {
      Key a = fx.KeyIn(0, i * 2);
      Key b = fx.KeyIn(1, i * 2);
      clients[i]->ExecuteReadWrite(
          {}, {WriteOp{a, ToBytes("a")}, WriteOp{b, ToBytes("b")}},
          [&](RwResult) { ++done; });
    }
  });
  fx.system->env().RunUntil(sim::Seconds(10));
  EXPECT_EQ(done, 8);

  for (PartitionId p = 0; p < fx.config.num_partitions; ++p) {
    const auto& log = fx.system->node(p, 0)->log();
    BatchId last_group = kNoBatch;
    for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
      for (const storage::CommitRecord& rec :
           log.Get(b).value()->batch.committed) {
        EXPECT_GE(rec.prepared_in_batch, last_group)
            << "partition " << p << " batch " << b;
        last_group = rec.prepared_in_batch;
      }
    }
  }
}

TEST(TwoPcTest, LceIsMonotonicallyNonDecreasing) {
  Fixture fx(3, /*seed=*/13);
  std::vector<Client*> clients;
  for (int i = 0; i < 6; ++i) clients.push_back(fx.system->AddClient());
  fx.system->env().Schedule(sim::Millis(30), [&] {
    for (size_t i = 0; i < clients.size(); ++i) {
      clients[i]->ExecuteReadWrite(
          {}, {WriteOp{fx.KeyIn(0, i), ToBytes("a")},
               WriteOp{fx.KeyIn(2, i), ToBytes("c")}},
          [](RwResult) {});
    }
  });
  fx.system->env().RunUntil(sim::Seconds(8));

  for (PartitionId p = 0; p < fx.config.num_partitions; ++p) {
    const auto& log = fx.system->node(p, 0)->log();
    BatchId last_lce = kNoBatch;
    for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
      BatchId lce = log.Get(b).value()->batch.ro.lce;
      EXPECT_GE(lce, last_lce) << "partition " << p << " batch " << b;
      last_lce = lce;
    }
  }
}

// Records the commit replies sent to it.
struct CommitReplyProbe : sim::Actor {
  std::vector<wire::CommitReply> replies;
  void OnMessage(sim::ActorId, const sim::MessagePtr& msg) override {
    if (static_cast<wire::MessageType>(msg->type()) ==
        wire::MessageType::kCommitReply) {
      replies.push_back(static_cast<const wire::CommitReply&>(*msg));
    }
  }
};

// The coordinator counts a vote only from a partition the transaction
// involves. Partition 0 coordinates a write to partitions 0 and 1, and
// partition 1 never hears of it. A yes vote claiming partition 2, with a
// genuine certificate of partition 2's log tail, used to complete the
// vote count: partition 0 committed and wrote alone.
TEST(TwoPcTest, VoteFromNonParticipantIsNotCounted) {
  Fixture fx;
  Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);

  CommitReplyProbe probe;
  const sim::ActorId probe_id = fx.config.ClientNode(1000);
  fx.system->env().network().Register(probe_id, /*site=*/0, &probe);
  fx.system->env().network().SetLinkFilter(
      [&](sim::ActorId, sim::ActorId to, const sim::MessagePtr& msg) {
        return !(static_cast<wire::MessageType>(msg->type()) ==
                     wire::MessageType::kCoordPrepare &&
                 fx.config.PartitionOfNode(static_cast<crypto::NodeId>(to)) ==
                     1);
      });

  Transaction txn;
  txn.id = MakeTxnId(9999, 2);
  txn.write_set = {WriteOp{k0, ToBytes("forged")},
                   WriteOp{k1, ToBytes("forged")}};
  txn.participants = fx.pmap.ParticipantsOf(txn.read_set, txn.write_set);
  txn.coordinator = 0;
  ASSERT_EQ(txn.participants, (std::vector<PartitionId>{0, 1}));
  fx.system->env().Schedule(sim::Millis(30), [&] {
    wire::CommitRequest req;
    req.reply_to = probe_id;
    req.txn = txn;
    fx.system->env().network().Send(probe_id, fx.config.LeaderOf(0, 0),
                                    wire::ShareMsg(std::move(req)));
  });

  // Once partition 0 has logged the prepare, vote yes in partition 2's
  // name with partition 2's newest certificate.
  fx.system->env().Schedule(sim::Millis(200), [&] {
    const auto& log = fx.system->node(2, 0)->log();
    ASSERT_FALSE(log.empty());
    wire::PreparedMsg vote;
    vote.txn_id = txn.id;
    vote.info.partition = 2;
    vote.info.prepared_in_batch = log.LastBatchId();
    vote.info.vote = true;
    vote.info.cd_vector = log.back().batch.ro.cd_vector;
    vote.proof = log.back().certificate;
    fx.system->env().network().Send(probe_id, fx.config.LeaderOf(0, 0),
                                    wire::ShareMsg(std::move(vote)));
  });
  fx.system->env().RunUntil(sim::Seconds(1));

  for (const wire::CommitReply& reply : probe.replies) {
    EXPECT_FALSE(reply.committed) << "committed without partition 1's vote";
  }
  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    EXPECT_NE(ToString(fx.system->node(0, i)->store().Get(k0)->value),
              "forged")
        << "replica " << i;
  }
}

// A commit record decides a transaction only with its coordinator's
// certificate. Partition 0 coordinates a write to partitions 0 and 1,
// and partition 1's votes never reach it. A record claiming commit,
// carrying a genuine certificate of partition 2's log tail, used to
// decide the pending transaction at partition 1: every replica there
// wrote the value, and partition 0 never committed.
TEST(TwoPcTest, CommitRecordWithANonCoordinatorCertificateIsIgnored) {
  Fixture fx;
  Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);

  CommitReplyProbe probe;
  const sim::ActorId probe_id = fx.config.ClientNode(1000);
  fx.system->env().network().Register(probe_id, /*site=*/0, &probe);
  fx.system->env().network().SetLinkFilter(
      [&](sim::ActorId, sim::ActorId to, const sim::MessagePtr& msg) {
        return !(static_cast<wire::MessageType>(msg->type()) ==
                     wire::MessageType::kPrepared &&
                 fx.config.PartitionOfNode(static_cast<crypto::NodeId>(to)) ==
                     0);
      });

  Transaction txn;
  txn.id = MakeTxnId(9999, 3);
  txn.write_set = {WriteOp{k0, ToBytes("forged")},
                   WriteOp{k1, ToBytes("forged")}};
  txn.participants = fx.pmap.ParticipantsOf(txn.read_set, txn.write_set);
  txn.coordinator = 0;
  ASSERT_EQ(txn.participants, (std::vector<PartitionId>{0, 1}));
  fx.system->env().Schedule(sim::Millis(30), [&] {
    wire::CommitRequest req;
    req.reply_to = probe_id;
    req.txn = txn;
    fx.system->env().network().Send(probe_id, fx.config.LeaderOf(0, 0),
                                    wire::ShareMsg(std::move(req)));
  });

  // Once partition 1 has logged the prepare, decide it with partition
  // 2's newest certificate.
  fx.system->env().Schedule(sim::Millis(200), [&] {
    bool prepared = false;
    const auto& participant_log = fx.system->node(1, 0)->log();
    for (BatchId b = 0; b <= participant_log.LastBatchId(); ++b) {
      const storage::Batch& batch = participant_log.Get(b).value()->batch;
      for (const Transaction& t : batch.prepared) {
        prepared = prepared || t.id == txn.id;
      }
    }
    ASSERT_TRUE(prepared) << "partition 1 did not prepare in time";
    const auto& log = fx.system->node(2, 0)->log();
    ASSERT_FALSE(log.empty());
    wire::CommitRecordMsg record;
    record.txn_id = txn.id;
    record.commit = true;
    for (PartitionId p : txn.participants) {
      storage::PreparedInfo info;
      info.partition = p;
      info.prepared_in_batch = log.LastBatchId();
      info.vote = true;
      info.cd_vector = log.back().batch.ro.cd_vector;
      record.participant_info.push_back(std::move(info));
    }
    record.proof = log.back().certificate;
    fx.system->env().network().Send(probe_id, fx.config.LeaderOf(1, 0),
                                    wire::ShareMsg(std::move(record)));
  });
  fx.system->env().RunUntil(sim::Seconds(1));

  for (const wire::CommitReply& reply : probe.replies) {
    EXPECT_FALSE(reply.committed) << "committed without partition 1's vote";
  }
  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    EXPECT_NE(ToString(fx.system->node(1, i)->store().Get(k1)->value),
              "forged")
        << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Leader handover: stale coordinator groups (parameterized over engines)
// ---------------------------------------------------------------------------

// A view change must not strand a distributed transaction whose prepare
// the demoted leader already logged: the new leader *resumes* the
// inherited group — it rebuilds coordination state from the logged
// prepare batch, re-solicits the participant votes with a resend
// coordinator-prepare, and the participant re-votes yes from its own
// log. The transaction therefore commits (the old behavior unilaterally
// aborted it), and the stranded client — silently dropped by the demoted
// coordinator — is answered through its timeout retry, which reattaches
// to the resumed coordination entry. The scenario keeps the old leader
// alive (it merely stops being heard): its proposals are filtered once
// the prepare is logged, and the participant's Prepared votes to it are
// swallowed, so the decision can never be reached in the old view.
class StaleGroupHandoverTest
    : public ::testing::TestWithParam<core::ConsensusKind> {};

TEST_P(StaleGroupHandoverTest, NewLeaderResumesStrandedCoordinatorGroups) {
  SystemConfig config;
  config.num_partitions = 2;
  config.f = 1;
  config.consensus_kind = GetParam();
  config.batch_interval = sim::Millis(5);
  config.view_change_timeout = sim::Millis(150);
  config.merkle_depth = 8;
  sim::EnvironmentOptions env_opts;
  env_opts.seed = 11;
  env_opts.inter_site_latency = sim::Millis(1);
  System system(config, env_opts);
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 8;
  auto data = workload::KeySpace(wopts, 2).InitialData();
  system.Preload(data);
  system.Start();

  storage::PartitionMap pmap(2);
  auto key_in = [&](PartitionId p, size_t skip) {
    for (const auto& [key, value] : data) {
      if (pmap.OwnerOf(key) == p && skip-- == 0) return key;
    }
    return Key();
  };
  Key k0 = key_in(0, 0), k1 = key_in(1, 0);

  // The stranded transaction is the client's first (txn seq 1, odd), so
  // it picks participants[1] — partition 1 — as coordinator.
  const crypto::NodeId old_leader = config.ReplicaNode(1, 0);
  // (1) Swallow the participant's Prepared votes to the old leader for
  // the whole run: the stranded transaction's decision can never form in
  // view 0. (2) After its prepare is logged, also swallow the old
  // leader's proposals: the cluster stops hearing it and elects a new
  // leader, while the old one stays up to be demoted — and to send its
  // waiting client the retryable abort.
  system.env().network().SetLinkFilter(
      [&, old_leader](sim::ActorId from, sim::ActorId to,
                      const sim::MessagePtr& msg) {
        auto type = static_cast<wire::MessageType>(msg->type());
        if (to == old_leader && type == wire::MessageType::kPrepared) {
          return false;
        }
        if (from == old_leader && system.env().now() >= sim::Millis(100) &&
            (type == wire::MessageType::kPrePrepare ||
             type == wire::MessageType::kLinearPropose)) {
          return false;
        }
        return true;
      });

  // The transaction that will strand: its prepare logs at ~45 ms, well
  // before the proposal filter engages.
  Client* stranded_client = system.AddClient();
  std::optional<RwResult> stranded;
  system.env().Schedule(sim::Millis(30), [&] {
    stranded_client->ExecuteReadWrite(
        {}, {WriteOp{k0, ToBytes("stranded")}, WriteOp{k1, ToBytes("str1")}},
        [&](RwResult r) { stranded = std::move(r); });
  });
  // Sanity: the prepare reached partition 0's log before the filter cut
  // the old leader off.
  system.env().Schedule(sim::Millis(100), [&] {
    const auto& log = system.node(1, 0)->log();
    bool prepared_logged = false;
    for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
      if (!log.Get(b).value()->batch.prepared.empty()) prepared_logged = true;
    }
    ASSERT_TRUE(prepared_logged) << "prepare did not log in time";
  });

  // Local traffic whose client-timeout retries arm the progress timers
  // on the followers, driving the view change.
  Client* local_client = system.AddClient();
  std::optional<RwResult> local;
  system.env().Schedule(sim::Millis(150), [&] {
    local_client->ExecuteReadWrite(
        {}, {WriteOp{key_in(1, 5), ToBytes("local")}},
        [&](RwResult r) { local = std::move(r); });
  });

  // After the handover settles, a fresh distributed transaction across
  // the same clusters: it can only commit if the stranded group was
  // decided on *both* partitions (Definition 4.1 forces groups to commit
  // in prepare order).
  Client* later_client = system.AddClient();
  std::optional<RwResult> later;
  system.env().Schedule(sim::Seconds(15), [&] {
    later_client->ExecuteReadWrite(
        {}, {WriteOp{key_in(0, 6), ToBytes("post")},
             WriteOp{key_in(1, 6), ToBytes("post")}},
        [&](RwResult r) { later = std::move(r); });
  });

  system.env().RunUntil(sim::Seconds(40));

  // Partition 1 elected a new leader.
  bool view_advanced = false;
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    if (system.node(1, i)->view() > 0) view_advanced = true;
  }
  ASSERT_TRUE(view_advanced) << "no view change happened";

  // The stranded client was answered through its timeout retry — and
  // with a COMMIT: the resumed group re-collected the participant's
  // yes-vote instead of aborting work both partitions already prepared.
  ASSERT_TRUE(stranded.has_value()) << "stranded client never answered";
  EXPECT_TRUE(stranded->committed)
      << "resumed group did not commit: " << stranded->reason;
  uint64_t dist_committed = 0;
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    dist_committed += system.node(1, i)->stats().dist_committed;
  }
  EXPECT_GE(dist_committed, 1u) << "no coordinator counted the resumed commit";

  ASSERT_TRUE(local.has_value());
  EXPECT_TRUE(local->committed) << local->reason;
  ASSERT_TRUE(later.has_value()) << "post-handover distributed txn hung";
  EXPECT_TRUE(later->committed)
      << "stranded group still blocks 2PC: " << later->reason;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StaleGroupHandoverTest,
    ::testing::Values(core::ConsensusKind::kPbft,
                      core::ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<core::ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

// ---------------------------------------------------------------------------
// Leader handover: a leader crashes with its prepare batch in flight
// ---------------------------------------------------------------------------

// The batch a consensus proposal carries; nullptr for other messages.
const storage::Batch* ProposedBatch(const sim::MessagePtr& msg) {
  switch (static_cast<wire::MessageType>(msg->type())) {
    case wire::MessageType::kPrePrepare:
      return &static_cast<const wire::PrePrepareMsg&>(*msg).batch;
    case wire::MessageType::kLinearPropose:
      return &static_cast<const wire::LinearProposeMsg&>(*msg).batch;
    default:
      return nullptr;
  }
}

// True for the commit phase of view 0 under either engine: PBFT Commit,
// and the linear engine's commit votes and commit QC. Without it a
// prepare-locked batch cannot decide in view 0.
bool ViewZeroCommitPhase(const sim::MessagePtr& msg) {
  switch (static_cast<wire::MessageType>(msg->type())) {
    case wire::MessageType::kCommit:
      return static_cast<const wire::CommitMsg&>(*msg).view == 0;
    case wire::MessageType::kLinearVote: {
      const auto& vote = static_cast<const wire::LinearVoteMsg&>(*msg);
      return vote.view == 0 && vote.phase == wire::kLinearPhaseCommit;
    }
    case wire::MessageType::kLinearQc: {
      const auto& qc = static_cast<const wire::LinearQcMsg&>(*msg);
      return qc.view == 0 && qc.phase == wire::kLinearPhaseCommit;
    }
    default:
      return false;
  }
}

// Two partitions and one two-cluster write at 30 ms. It is the client's
// first transaction (txn seq 1, odd), so partition 1 coordinates. The
// victim is replica 0 of `victim_partition`, its view-0 leader. When it
// proposes the batch that prepares the write, a link filter arms and cuts
// that batch short, and the victim crash-stops 20 ms later:
//   - kCommitPhase drops the victim cluster's view-0 commit phase, so the
//     batch locks on its prepare QC but does not decide;
//   - kEverything drops everything the victim sends, that proposal
//     included, so its cluster never sees the prepare.
// A second two-cluster write at 10 s can only commit once both commit
// queues drained (Definition 4.1).
class LeaderCrashHandoverTest
    : public ::testing::TestWithParam<core::ConsensusKind> {
 protected:
  enum class Cut { kCommitPhase, kEverything };

  void Run(PartitionId victim_partition, Cut cut) {
    config_.num_partitions = 2;
    config_.f = 1;
    config_.consensus_kind = GetParam();
    config_.batch_interval = sim::Millis(5);
    config_.view_change_timeout = sim::Millis(150);
    config_.merkle_depth = 8;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = 11;
    env_opts.inter_site_latency = sim::Millis(1);
    system_ = std::make_unique<System>(config_, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 200;
    wopts.value_size = 8;
    data_ = workload::KeySpace(wopts, 2).InitialData();
    system_->Preload(data_);
    system_->Start();

    victim_ = config_.ReplicaNode(victim_partition, 0);
    Client* first_client = system_->AddClient();
    system_->env().network().SetLinkFilter(
        [this, victim_partition, cut, first_client](
            sim::ActorId from, sim::ActorId to, const sim::MessagePtr& msg) {
          auto type = static_cast<wire::MessageType>(msg->type());
          if (type == wire::MessageType::kCommitRequest &&
              from == first_client->id()) {
            ++requests_to_[to];
          }
          if (type == wire::MessageType::kCoordPrepare) {
            const auto& prepare =
                static_cast<const wire::CoordPrepareMsg&>(*msg);
            if (prepare.resend && prepare.txn.id == first_txn_) {
              ++resends_to_[to];
            }
          }
          if (!armed_ && from == victim_) {
            const storage::Batch* batch = ProposedBatch(msg);
            if (batch != nullptr && !batch->prepared.empty()) {
              armed_ = true;
              first_txn_ = batch->prepared.front().id;
              system_->env().Schedule(sim::Millis(20), [this] {
                system_->CrashReplica(victim_);
              });
            }
          }
          if (!armed_) return true;
          if (cut == Cut::kEverything) return from != victim_;
          return !(ViewZeroCommitPhase(msg) &&
                   config_.PartitionOfNode(
                       static_cast<crypto::NodeId>(from)) ==
                       victim_partition);
        });

    first_writes_ = {WriteOp{KeyIn(0, 0), ToBytes("first0")},
                     WriteOp{KeyIn(1, 0), ToBytes("first1")}};
    later_writes_ = {WriteOp{KeyIn(0, 6), ToBytes("later0")},
                     WriteOp{KeyIn(1, 6), ToBytes("later1")}};
    system_->env().Schedule(sim::Millis(30), [this, first_client] {
      first_client->ExecuteReadWrite(
          {}, first_writes_, [this](RwResult r) { first_ = std::move(r); });
    });
    Client* later_client = system_->AddClient();
    system_->env().Schedule(sim::Seconds(10), [this, later_client] {
      later_client->ExecuteReadWrite(
          {}, later_writes_, [this](RwResult r) { later_ = std::move(r); });
    });
    system_->env().RunUntil(sim::Seconds(30));
    ASSERT_TRUE(armed_) << "the victim never proposed the prepare";
  }

  Key KeyIn(PartitionId p, size_t skip) const {
    storage::PartitionMap pmap(config_.num_partitions);
    for (const auto& [key, value] : data_) {
      if (pmap.OwnerOf(key) == p && skip-- == 0) return key;
    }
    ADD_FAILURE() << "no key in partition " << p;
    return Key();
  }

  // Every live replica holds the 2PC outcome the client was told: a
  // commit record with the same verdict in its log, and the write in its
  // store exactly when it committed.
  void ExpectOutcomeInLogsAndStores(const RwResult& result,
                                    const std::vector<WriteOp>& writes) {
    for (const WriteOp& write : writes) {
      PartitionId p = storage::PartitionMap(config_.num_partitions)
                          .OwnerOf(write.key);
      for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
        if (config_.ReplicaNode(p, i) == victim_) continue;
        SCOPED_TRACE("partition " + std::to_string(p) + " replica " +
                     std::to_string(i));
        const core::TransEdgeNode* node = system_->node(p, i);
        std::optional<bool> logged;
        const storage::SmrLog& log = node->log();
        for (BatchId b = log.FirstBatchId(); b <= log.LastBatchId(); ++b) {
          for (const storage::CommitRecord& rec :
               log.Get(b).value()->batch.committed) {
            if (rec.txn_id != result.txn_id) continue;
            EXPECT_EQ(rec.coordinator, 1u);  // The scenario's premise.
            logged = rec.committed;
          }
        }
        ASSERT_TRUE(logged.has_value()) << "no commit record";
        EXPECT_EQ(*logged, result.committed);
        EXPECT_EQ(ToString(node->store().Get(write.key)->value) ==
                      ToString(write.value),
                  result.committed);
      }
    }
  }

  // No transaction is prepared twice in one partition's log: a retry or
  // a re-asked prepare must not run a handed-over transaction again.
  void ExpectEachTxnPreparedOnce() {
    for (PartitionId p = 0; p < config_.num_partitions; ++p) {
      for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
        if (config_.ReplicaNode(p, i) == victim_) continue;
        const storage::SmrLog& log = system_->node(p, i)->log();
        std::map<TxnId, BatchId> prepared_in;
        for (BatchId b = log.FirstBatchId(); b <= log.LastBatchId(); ++b) {
          for (const Transaction& t : log.Get(b).value()->batch.prepared) {
            auto [it, fresh] = prepared_in.emplace(t.id, b);
            EXPECT_TRUE(fresh)
                << "partition " << p << " replica " << i << " prepared txn "
                << t.id << " in batch " << it->second << " and " << b;
          }
        }
      }
    }
  }

  SystemConfig config_;
  std::unique_ptr<System> system_;
  std::vector<std::pair<Key, Value>> data_;
  crypto::NodeId victim_ = 0;
  bool armed_ = false;
  TxnId first_txn_ = 0;  // Set when the filter arms.
  // Per receiver: the first client's commit requests, and the resend
  // coordinator-prepares of its transaction.
  std::map<sim::ActorId, int> requests_to_, resends_to_;
  std::vector<WriteOp> first_writes_, later_writes_;
  std::optional<RwResult> first_, later_;
};

// The coordinator's leader crashes with its prepare batch locked. The new
// leader re-proposes the batch and, on applying it, drives the 2PC it did
// not admit; the client's timeout retry is answered from the recorded
// outcome. A new leader that sent no legs for a batch it did not admit
// re-admitted the retry instead, and answered it with a final abort
// ("conflicts with a prepared transaction") while both partitions later
// committed the write.
TEST_P(LeaderCrashHandoverTest, CoordinatorLeaderCrashWithLockedPrepare) {
  Run(/*victim_partition=*/1, Cut::kCommitPhase);
  ASSERT_TRUE(first_.has_value()) << "client never answered";
  EXPECT_TRUE(first_->committed) << first_->reason;
  ExpectOutcomeInLogsAndStores(*first_, first_writes_);
  ASSERT_TRUE(later_.has_value());
  EXPECT_TRUE(later_->committed) << later_->reason;
  ExpectEachTxnPreparedOnce();
}

// A participant's leader crashes with its prepare batch locked. Its new
// leader votes when the re-proposed batch applies, so the write commits
// before the client's first timeout, and the healthy coordinator cluster
// never changes view. A new leader that voted only for what it admitted
// left the write to commit after the client's retry forced a view change
// at the coordinator.
TEST_P(LeaderCrashHandoverTest, ParticipantLeaderCrashWithLockedPrepare) {
  Run(/*victim_partition=*/0, Cut::kCommitPhase);
  ASSERT_TRUE(first_.has_value()) << "client never answered";
  EXPECT_TRUE(first_->committed) << first_->reason;
  EXPECT_LT(first_->latency, config_.client_timeout);
  for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system_->node(1, i)->view(), 0u) << "coordinator replica " << i;
  }
  ExpectOutcomeInLogsAndStores(*first_, first_writes_);
  ASSERT_TRUE(later_.has_value());
  EXPECT_TRUE(later_->committed) << later_->reason;
  ExpectEachTxnPreparedOnce();
}

// A participant's leader crashes before its cluster saw the prepare. The
// coordinator-prepares reached only f+1 members, too few to change view,
// so the participant stayed in view 0 with a dead leader. The client's
// retry now re-solicits the missing vote from every member: the cluster
// elects a new leader, a later resend reaches it, and the write commits.
// Asked only through f+1 members, both writes ended in "client timeout".
TEST_P(LeaderCrashHandoverTest,
       ParticipantLeaderCrashBeforeItsClusterPrepared) {
  Run(/*victim_partition=*/0, Cut::kEverything);
  ASSERT_TRUE(first_.has_value()) << "client never answered";
  EXPECT_TRUE(first_->committed) << first_->reason;
  // Only a retry reaches the coordinator's last member, and only a
  // re-solicitation reaches the participant's members beyond the f+1
  // that SendToCluster covers: once per retry round, however many
  // forwarded copies of the retry the coordinator's leader receives.
  const uint32_t n = config_.replicas_per_cluster();
  const int retry_rounds = requests_to_[config_.ReplicaNode(1, n - 1)];
  EXPECT_GT(resends_to_[config_.ReplicaNode(0, n - 1)], 0);
  for (uint32_t i = config_.f + 1; i < n; ++i) {
    EXPECT_LE(resends_to_[config_.ReplicaNode(0, i)], retry_rounds)
        << "participant replica " << i;
  }
  ExpectOutcomeInLogsAndStores(*first_, first_writes_);
  ASSERT_TRUE(later_.has_value());
  EXPECT_TRUE(later_->committed) << later_->reason;
  ExpectEachTxnPreparedOnce();
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LeaderCrashHandoverTest,
    ::testing::Values(core::ConsensusKind::kPbft,
                      core::ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<core::ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

// ---------------------------------------------------------------------------
// A view change never re-executes a decided transaction
// ---------------------------------------------------------------------------

// Silent addressee of the releases that force the view change.
struct SilentProbe : sim::Actor {
  void OnMessage(sim::ActorId, const sim::MessagePtr&) override {}
};

// Times a view change at the coordinator to land while the batch that
// carries a two-partition write's commit record is decided but still
// applying. The write is the client's first transaction (txn seq 1, odd),
// so partition 1 coordinates. Followers forward an Augustus release to
// their leader and demand that its log advance; the idle leader logs
// nothing, so two releases change the view. A 1.5 s apply keeps the
// record's batch applying across it.
class DecidedAcrossViewChangeTest
    : public ::testing::TestWithParam<core::ConsensusKind> {};

TEST_P(DecidedAcrossViewChangeTest, CommitRecordStillApplyingIsNotRetried) {
  SystemConfig config;
  config.num_partitions = 2;
  config.f = 1;
  config.consensus_kind = GetParam();
  config.merkle_depth = 8;
  config.cost.apply_per_txn = sim::Millis(1500);
  config.client_timeout = sim::Seconds(30);
  sim::EnvironmentOptions env_opts;
  env_opts.seed = 5;
  System system(config, env_opts);
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 8;
  auto data = workload::KeySpace(wopts, 2).InitialData();
  system.Preload(data);
  system.Start();
  storage::PartitionMap pmap(2);
  auto key_in = [&](PartitionId p, size_t skip) {
    for (const auto& [key, value] : data) {
      if (pmap.OwnerOf(key) == p && skip-- == 0) return key;
    }
    return Key();
  };

  SilentProbe probe;
  const sim::ActorId probe_id = config.ClientNode(1004);
  system.env().network().Register(probe_id, /*site=*/0, &probe);

  Client* client = system.AddClient();
  std::optional<RwResult> first, later;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite(
        {}, {WriteOp{key_in(0, 0), ToBytes("first0")},
             WriteOp{key_in(1, 0), ToBytes("first1")}},
        [&](RwResult r) { first = std::move(r); });
  });
  // Once the coordinator's leader decided the commit record, release at
  // two of its followers. The premise, 1.4 s later: the view changed, and
  // the record's batch has not applied at the old leader.
  const core::TransEdgeNode* old_leader = system.node(1, 0);
  BatchId record_batch = kNoBatch;
  bool premise = false;
  std::function<void()> poll = [&] {
    const storage::SmrLog& log = old_leader->log();
    if (!log.empty() && !log.back().batch.committed.empty()) {
      record_batch = log.LastBatchId();
      for (uint32_t follower : {1u, 2u}) {
        wire::AugustusRelease release;
        release.request_id = 1;
        system.env().network().Send(probe_id,
                                    config.ReplicaNode(1, follower),
                                    wire::ShareMsg(std::move(release)));
      }
      system.env().Schedule(sim::Millis(1400), [&] {
        premise = old_leader->view() > 0 &&
                  old_leader->last_applied() < record_batch;
      });
      return;
    }
    system.env().Schedule(sim::Millis(1), poll);
  };
  system.env().Schedule(sim::Millis(30), poll);
  Client* later_client = system.AddClient();
  system.env().Schedule(sim::Seconds(20), [&] {
    later_client->ExecuteReadWrite(
        {}, {WriteOp{key_in(0, 6), ToBytes("later0")},
             WriteOp{key_in(1, 6), ToBytes("later1")}},
        [&](RwResult r) { later = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(60));

  ASSERT_NE(record_batch, kNoBatch) << "no commit record was decided";
  ASSERT_TRUE(premise) << "the view did not change while the record applied";
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->committed) << first->reason;
  ASSERT_TRUE(later.has_value());
  EXPECT_TRUE(later->committed) << later->reason;
  EXPECT_LT(later->latency, config.client_timeout);
  EXPECT_EQ(client->stats().timeouts, 0u);
  EXPECT_EQ(later_client->stats().timeouts, 0u);
  // Every replica of each partition prepared the write once and logged
  // one commit record for it.
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const storage::SmrLog& log = system.node(p, i)->log();
      int prepared = 0;
      int recorded = 0;
      for (BatchId b = log.FirstBatchId(); b <= log.LastBatchId(); ++b) {
        const storage::Batch& batch = log.Get(b).value()->batch;
        for (const Transaction& t : batch.prepared) {
          if (t.id == first->txn_id) ++prepared;
        }
        for (const storage::CommitRecord& rec : batch.committed) {
          if (rec.txn_id == first->txn_id) ++recorded;
        }
      }
      EXPECT_EQ(prepared, 1) << "partition " << p << " replica " << i;
      EXPECT_EQ(recorded, 1) << "partition " << p << " replica " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DecidedAcrossViewChangeTest,
    ::testing::Values(core::ConsensusKind::kPbft,
                      core::ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<core::ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

// ---------------------------------------------------------------------------
// Votes and commit records leave when their batch decides
// ---------------------------------------------------------------------------

// Two partitions and one two-partition write at 30 ms, the client's first
// transaction (txn seq 1, odd), so partition 1 coordinates and partition
// 0 participates. Every apply charge is inflated, so a decided batch
// stays unapplied long after its 2PC legs could have crossed the 1 ms
// inter-site link.
class TwoPcLegsTest : public ::testing::TestWithParam<core::ConsensusKind> {
 protected:
  void Start(sim::Time apply_per_txn, sim::Time client_timeout) {
    config_.num_partitions = 2;
    config_.f = 1;
    config_.consensus_kind = GetParam();
    config_.batch_interval = sim::Millis(5);
    config_.merkle_depth = 8;
    config_.cost.apply_per_txn = apply_per_txn;
    config_.client_timeout = client_timeout;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = 5;
    env_opts.inter_site_latency = sim::Millis(1);
    system_ = std::make_unique<System>(config_, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 200;
    wopts.value_size = 8;
    data_ = workload::KeySpace(wopts, 2).InitialData();
    system_->Preload(data_);
    system_->Start();

    storage::PartitionMap pmap(2);
    for (PartitionId p : {0u, 1u}) {
      auto it = std::find_if(data_.begin(), data_.end(), [&](const auto& kv) {
        return pmap.OwnerOf(kv.first) == p;
      });
      ASSERT_NE(it, data_.end()) << "no key in partition " << p;
      writes_.push_back(
          WriteOp{it->first, ToBytes("write" + std::to_string(p))});
    }
    Client* client = system_->AddClient();
    system_->env().Schedule(sim::Millis(30), [this, client] {
      client->ExecuteReadWrite({}, writes_,
                               [this](RwResult r) { result_ = std::move(r); });
    });
  }

  SystemConfig config_;
  std::unique_ptr<System> system_;
  std::vector<std::pair<Key, Value>> data_;
  std::vector<WriteOp> writes_;  // Partition 0's, then partition 1's.
  std::optional<RwResult> result_;
};

// The participant's yes-vote and the coordinator's commit record each
// leave their sender's leader before it applies the batch that carries
// them. Each is checked when it is sent and again 10 ms later, longer
// than it takes to cross the link: the sender still has not applied the
// batch. Sent at apply, both left only once the 200 ms charge ended.
TEST_P(TwoPcLegsTest, VoteAndRecordLeaveAtDecide) {
  Start(/*apply_per_txn=*/sim::Millis(200), /*client_timeout=*/sim::Seconds(2));
  struct Leg {
    const core::TransEdgeNode* sender;
    BatchId carried;
    bool applied_at_send;
    bool applied_after_crossing = false;
  };
  std::vector<Leg> votes, records;
  system_->env().network().SetLinkFilter(
      [this, &votes, &records](sim::ActorId from, sim::ActorId,
                               const sim::MessagePtr& msg) {
        const auto node = static_cast<crypto::NodeId>(from);
        if (node >= config_.total_replicas() ||
            config_.ReplicaIndexOf(node) != 0) {
          return true;  // Clients, and followers forwarding to a leader.
        }
        const core::TransEdgeNode* sender = system_->node(
            config_.PartitionOfNode(node), config_.ReplicaIndexOf(node));
        std::vector<Leg>* legs = nullptr;
        BatchId carried = kNoBatch;
        switch (static_cast<wire::MessageType>(msg->type())) {
          case wire::MessageType::kPrepared:
            legs = &votes;
            carried = static_cast<const wire::PreparedMsg&>(*msg)
                          .info.prepared_in_batch;
            break;
          case wire::MessageType::kCommitRecord:
            legs = &records;
            carried =
                static_cast<const wire::CommitRecordMsg&>(*msg).proof.batch_id;
            break;
          default:
            return true;
        }
        legs->push_back({sender, carried, sender->last_applied() >= carried});
        const size_t index = legs->size() - 1;
        system_->env().Schedule(sim::Millis(10), [legs, index] {
          Leg& leg = (*legs)[index];
          leg.applied_after_crossing =
              leg.sender->last_applied() >= leg.carried;
        });
        return true;
      });
  system_->env().RunUntil(sim::Seconds(3));

  ASSERT_TRUE(result_.has_value()) << "client never answered";
  EXPECT_TRUE(result_->committed) << result_->reason;
  ASSERT_FALSE(votes.empty()) << "no vote left the participant's leader";
  ASSERT_FALSE(records.empty()) << "no record left the coordinator's leader";
  for (const std::vector<Leg>* legs : {&votes, &records}) {
    for (const Leg& leg : *legs) {
      SCOPED_TRACE(legs == &votes ? "vote" : "commit record");
      EXPECT_FALSE(leg.applied_at_send) << "sent at apply";
      EXPECT_FALSE(leg.applied_after_crossing)
          << "applied before the leg crossed the link";
    }
  }
  for (const Leg& leg : votes) {
    EXPECT_EQ(leg.sender->partition(), 0u);
    EXPECT_EQ(leg.sender->view(), 0u);
  }
  for (const Leg& leg : records) {
    EXPECT_EQ(leg.sender->partition(), 1u);
    EXPECT_EQ(leg.sender->view(), 0u);
  }
  for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
    EXPECT_EQ(ToString(system_->node(0, i)->store().Get(writes_[0].key)->value),
              "write0")
        << "replica " << i;
  }
}

// The coordinator's leader crashes after it decided the batch that holds
// the commit record and before that batch applied. The record has left:
// every replica of the participant writes the value and drains its commit
// queue. Sent at apply, the record never left. The next leader would have
// applied the batch while still a follower, since the 50 ms charge ends
// long before a 300 ms view-change timeout, so the participant's group
// stayed pending for good.
TEST_P(TwoPcLegsTest, CoordinatorLeaderCrashBetweenDecideAndApply) {
  Start(/*apply_per_txn=*/sim::Millis(50), /*client_timeout=*/sim::Seconds(30));
  const core::TransEdgeNode* coordinator_leader = system_->node(1, 0);
  BatchId record_batch = kNoBatch;
  bool unapplied_at_crash = false;
  std::function<void()> poll = [&] {
    const storage::SmrLog& log = coordinator_leader->log();
    if (!log.empty() && !log.back().batch.committed.empty()) {
      record_batch = log.LastBatchId();
      EXPECT_EQ(log.back().batch.committed.front().coordinator, 1u);
      unapplied_at_crash = coordinator_leader->last_applied() < record_batch;
      system_->CrashReplica(coordinator_leader->id());
      return;
    }
    system_->env().Schedule(sim::Millis(1), poll);
  };
  system_->env().Schedule(sim::Millis(30), poll);
  system_->env().RunUntil(sim::Seconds(5));

  ASSERT_NE(record_batch, kNoBatch) << "no commit record was decided";
  ASSERT_TRUE(unapplied_at_crash) << "the record's batch applied first";
  for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
    SCOPED_TRACE("participant replica " + std::to_string(i));
    const core::TransEdgeNode* node = system_->node(0, i);
    EXPECT_EQ(ToString(node->store().Get(writes_[0].key)->value), "write0");
    // The commit queue, read from the log: every prepared transaction has
    // its commit record.
    std::map<TxnId, int> open;
    const storage::SmrLog& log = node->log();
    for (BatchId b = log.FirstBatchId(); b <= log.LastBatchId(); ++b) {
      const storage::Batch& batch = log.Get(b).value()->batch;
      for (const Transaction& t : batch.prepared) ++open[t.id];
      for (const storage::CommitRecord& rec : batch.committed) {
        --open[rec.txn_id];
      }
    }
    for (const auto& [txn_id, count] : open) {
      EXPECT_EQ(count, 0) << "txn " << txn_id << " still pending";
    }
    EXPECT_FALSE(open.empty()) << "nothing was prepared";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, TwoPcLegsTest,
    ::testing::Values(core::ConsensusKind::kPbft,
                      core::ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<core::ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

}  // namespace
}  // namespace transedge
