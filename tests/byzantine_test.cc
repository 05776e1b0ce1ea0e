// Byzantine fault-injection tests: the client-side defenses (Merkle
// verification, certificates, freshness) and the cluster-side defenses
// (re-validation, equivocation resistance) against a malicious leader.

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "core/consensus/batch_validation.h"
#include "core/system.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::RoResult;
using core::RwResult;
using core::System;
using core::SystemConfig;

struct Fixture {
  SystemConfig config;
  std::unique_ptr<System> system;
  std::vector<std::pair<Key, Value>> data;
  storage::PartitionMap pmap;

  explicit Fixture(uint32_t partitions = 2, uint64_t seed = 77,
                   sim::Time freshness_window = sim::Seconds(30),
                   uint32_t f = 1)
      : pmap(partitions) {
    config.num_partitions = partitions;
    config.f = f;
    config.batch_interval = sim::Millis(5);
    config.view_change_timeout = sim::Millis(80);
    config.merkle_depth = 8;
    config.freshness_window = freshness_window;
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

  Key KeyIn(PartitionId p) {
    for (const auto& [key, value] : data) {
      if (pmap.OwnerOf(key) == p) return key;
    }
    ADD_FAILURE();
    return "";
  }
};

TEST(ByzantineTest, TamperedReadValueIsDetectedByMerkleVerification) {
  Fixture fx;
  // The leader of partition 0 lies about values in read-only responses.
  fx.system->leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kTamperReadValue);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({fx.KeyIn(0)},
                            [&](RoResult r) { ro = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));

  ASSERT_TRUE(ro.has_value());
  EXPECT_FALSE(ro->status.ok());
  EXPECT_TRUE(ro->status.IsVerificationFailed()) << ro->status;
  EXPECT_EQ(client->stats().ro_verification_failures, 1u);
}

TEST(ByzantineTest, HonestPartitionStillServesWhileAnotherLies) {
  Fixture fx;
  fx.system->leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kTamperReadValue);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> honest;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({fx.KeyIn(1)},  // Only the honest partition.
                            [&](RoResult r) { honest = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(honest.has_value());
  EXPECT_TRUE(honest->status.ok()) << honest->status;
}

TEST(ByzantineTest, StaleSnapshotIsConsistentButFlaggedByFreshness) {
  // Tight 500 ms freshness window so a 64-batch-old snapshot (several
  // seconds of history) is flagged as stale by the client.
  Fixture fx(2, 77, sim::Millis(500));
  Client* client = fx.system->AddClient();
  Key k = fx.KeyIn(0);
  Client* writer = fx.system->AddClient();

  // Generate enough batches that "latest - 64" exists and is old.
  int committed = 0;
  // `write_loop` outlives the run, so closures hold a raw self-pointer
  // (a self-owning shared_ptr capture would be a leaked cycle).
  auto write_loop = std::make_shared<std::function<void()>>();
  auto* write_fn = write_loop.get();
  *write_loop = [&, write_fn] {
    if (committed >= 80) return;
    writer->ExecuteReadWrite({}, {WriteOp{k, ToBytes("w")}},
                             [&, write_fn](RwResult r) {
                               if (r.committed) ++committed;
                               (*write_fn)();
                             });
  };
  fx.system->env().Schedule(sim::Millis(30), *write_loop);
  fx.system->env().RunUntil(sim::Seconds(5));
  ASSERT_GE(committed, 80);

  fx.system->leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kStaleSnapshot);
  std::optional<RoResult> ro;
  client->ExecuteReadOnly({k}, [&](RoResult r) { ro = std::move(r); });
  fx.system->env().RunUntil(fx.system->env().now() + sim::Seconds(2));

  ASSERT_TRUE(ro.has_value());
  // The stale response is *consistent* (it verifies — old but certified),
  // exactly as §4.4.2 describes...
  EXPECT_TRUE(ro->status.ok()) << ro->status;
  // ...but the freshness timestamp gives it away.
  EXPECT_FALSE(ro->fresh);
}

TEST(ByzantineTest, EquivocatingLeaderCannotCertifyAndIsReplaced) {
  // f = 2 (7 replicas): a half-split equivocation reaches at most
  // 1 + 3 = 4 matching votes < the 2f+1 = 5 quorum, so neither variant
  // certifies and the cluster must change views. (With f = 1, 4 replicas,
  // one variant can still legitimately reach quorum — and safety holds —
  // which is why this test uses the larger cluster.)
  Fixture fx(/*partitions=*/1, /*seed=*/77,
             /*freshness_window=*/sim::Seconds(30), /*f=*/2);
  fx.system->node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);
  Client* client = fx.system->AddClient();

  std::optional<RwResult> result;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{fx.KeyIn(0), ToBytes("safe")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(30));

  // Safety: no two replicas ever certified different batches at the same
  // log position. (A replica that held the other variant may still be
  // catching up when the run ends, so compare common prefixes.)
  size_t longest = 0;
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    longest = std::max(longest, fx.system->node(0, i)->log().size());
  }
  EXPECT_GT(longest, 0u);
  size_t caught_up = 0;
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    if (fx.system->node(0, i)->log().size() == longest) ++caught_up;
  }
  EXPECT_GE(caught_up, fx.config.quorum_size() - 1);  // Leader is faulty.
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    for (uint32_t j = i + 1; j < fx.config.replicas_per_cluster(); ++j) {
      const auto& a = fx.system->node(0, i)->log();
      const auto& b = fx.system->node(0, j)->log();
      size_t common = std::min(a.size(), b.size());
      for (size_t k = 0; k < common; ++k) {
        EXPECT_EQ(a.Get(static_cast<BatchId>(k)).value()->batch
                      .ComputeDigest(),
                  b.Get(static_cast<BatchId>(k)).value()->batch
                      .ComputeDigest());
      }
    }
  }
  // The cluster moved to a new view and committed the client's write.
  bool view_advanced = false;
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    if (fx.system->node(0, i)->view() > 0) view_advanced = true;
  }
  EXPECT_TRUE(view_advanced);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
}

TEST(ByzantineTest, CrashedFollowersDoNotBlockReadOnly) {
  Fixture fx;
  // Crash f followers in each cluster.
  fx.system->node(0, 3)->SetByzantineBehavior(
      core::ByzantineBehavior::kCrash);
  fx.system->node(1, 3)->SetByzantineBehavior(
      core::ByzantineBehavior::kCrash);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadOnly({fx.KeyIn(0), fx.KeyIn(1)},
                            [&](RoResult r) { ro = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(ro.has_value());
  EXPECT_TRUE(ro->status.ok()) << ro->status;
}

TEST(ByzantineTest, ForgedCertificateRejectedByClientLogic) {
  // Unit-style check against the exact verification a client runs: a
  // byzantine node fabricates a batch and signs it only with itself.
  SystemConfig config;
  config.num_partitions = 1;
  config.f = 1;
  crypto::HmacSignatureScheme scheme(config.total_replicas() + 1, 9);

  storage::Batch fake;
  fake.partition = 0;
  fake.id = 3;
  fake.ro.cd_vector = txn::CdVector(1);
  fake.ro.lce = 2;
  fake.ro.merkle_root = crypto::Sha256::Hash(std::string_view("fake"));
  storage::BatchCertificate cert;
  cert.partition = 0;
  cert.batch_id = 3;
  cert.batch_digest = fake.ComputeDigest();
  cert.merkle_root = fake.ro.merkle_root;
  cert.ro_digest = fake.ro.ComputeDigest();
  // Only one signature — f+1 = 2 required.
  cert.signatures.Add(scheme.MakeSigner(0)->Sign(cert.SignedPayload()));
  Status s = cert.Verify(scheme.verifier(), config.certificate_size(),
                         config.ClusterMembers(0));
  EXPECT_TRUE(s.IsVerificationFailed());

  // Even duplicating its own signature does not help.
  cert.signatures.Add(scheme.MakeSigner(0)->Sign(cert.SignedPayload()));
  EXPECT_TRUE(cert.Verify(scheme.verifier(), config.certificate_size(),
                          config.ClusterMembers(0))
                  .IsVerificationFailed());
}

TEST(ByzantineTest, InvalidLeaderProposalIsNotCertified) {
  // A leader proposing a batch whose Merkle root does not match the
  // writes is silently rejected by honest replicas (validation failure),
  // so nothing commits until the view change replaces it. We emulate by
  // injecting a corrupted pre-prepare from the leader's id via the
  // network filter hook: simpler — tamper-read-value only affects RO
  // replies, so here we assert the validation path through equivocation
  // (different digests) which is the stronger variant, plus check that
  // no replica ever applied a batch whose recomputed digest mismatches
  // its certificate.
  Fixture fx(/*partitions=*/1);
  fx.system->node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);
  fx.system->env().Schedule(sim::Millis(30), [&] {
    Client* client = fx.system->AddClient();
    client->ExecuteReadWrite({}, {WriteOp{fx.KeyIn(0), ToBytes("v")}},
                             [](RwResult) {});
  });
  fx.system->env().RunUntil(sim::Seconds(20));

  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    const auto& log = fx.system->node(0, i)->log();
    for (BatchId b = 0; log.size() > 0 && b <= log.LastBatchId(); ++b) {
      const storage::LogEntry* entry = log.Get(b).value();
      EXPECT_EQ(entry->certificate.batch_digest,
                entry->batch.ComputeDigest());
      EXPECT_TRUE(entry->certificate
                      .Verify(fx.system->verifier(),
                              fx.config.certificate_size(),
                              fx.config.ClusterMembers(0))
                      .ok());
    }
  }
}

// --- Forged committed segments -----------------------------------------------
//
// A leader that re-signs its proposal with a malformed committed segment.
// Followers never see 2PC decisions, but they can require the segment to
// be an exact prefix of their own commit queue (core/batch_apply.h).

enum class SegmentForgery {
  kNone,              // Control: the leader's own proposal, replayed.
  kDuplicatedRecord,  // [X: abort, X: commit] in front of the honest records.
  kPartialGroup,      // A two-record group without its last record.
  kSkippedGroup,      // The second group left out, the LCE kept.
};

/// [begin, end) record ranges of the prepare groups in `committed`.
std::vector<std::pair<size_t, size_t>> GroupRuns(
    const std::vector<storage::CommitRecord>& committed) {
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 0; i < committed.size(); ++i) {
    if (runs.empty() || committed[i].prepared_in_batch !=
                            committed[runs.back().first].prepared_in_batch) {
      runs.emplace_back(i, i);
    }
    runs.back().second = i + 1;
  }
  return runs;
}

/// Recomputes `batch`'s CD vector and Merkle root the way an honest leader
/// of partition 0 would, on top of `leader`'s log tail and tree (PBFT
/// proposes one batch at a time, so nothing is in flight).
void ResealAsLeader(const core::TransEdgeNode& leader,
                    const storage::PartitionMap& pmap,
                    storage::Batch* batch) {
  const storage::SmrLog& log = leader.log();
  txn::CdVector cd = log.back().batch.ro.cd_vector;
  for (const storage::CommitRecord& rec : batch->committed) {
    if (!rec.committed) continue;
    for (const storage::PreparedInfo& info : rec.participant_info) {
      if (info.cd_vector.size() == cd.size()) cd.PairwiseMax(info.cd_vector);
    }
  }
  cd.Set(batch->partition, batch->id);
  batch->ro.cd_vector = cd;

  std::vector<merkle::MerkleTree::Write> writes;
  auto add = [&](const Transaction& t) {
    for (const WriteOp& w : t.write_set) {
      if (pmap.OwnerOf(w.key) == batch->partition) {
        writes.push_back({&w.key, &w.value, batch->id});
      }
    }
  };
  for (const Transaction& t : batch->local) add(t);
  for (const storage::CommitRecord& rec : batch->committed) {
    if (!rec.committed) continue;
    for (const Transaction& t :
         log.Get(rec.prepared_in_batch).value()->batch.prepared) {
      if (t.id == rec.txn_id) add(t);
    }
  }
  merkle::MerkleTree tree = leader.tree().Clone();
  tree.PutBatch(writes);
  batch->ro.merkle_root = tree.RootDigest();
}

/// True when `node`'s store hashes to its Merkle tree.
bool StoreMatchesTree(const core::TransEdgeNode& node, int merkle_depth) {
  merkle::MerkleTree rebuilt(merkle_depth);
  node.store().ForEachLatest(
      [&](const Key& key, const Value& value, BatchId version) {
        rebuilt.Put(key, value, version);
      });
  return rebuilt.RootDigest() == node.tree().RootDigest();
}

class ForgedSegmentTest : public ::testing::TestWithParam<SegmentForgery> {};

TEST_P(ForgedSegmentTest, FollowersLogOnlyExactPrefixes) {
  const uint64_t seed = 77;
  Fixture fx(/*partitions=*/2, seed);  // PBFT, f = 1.
  sim::Environment& env = fx.system->env();
  sim::Network& net = env.network();
  const crypto::NodeId leader_id = fx.config.LeaderOf(0, 0);
  const core::TransEdgeNode& leader = *fx.system->node(0, 0);
  ASSERT_EQ(leader.id(), leader_id);

  // Distributed transactions coordinated by partition 0, so each wave
  // forms its own prepare group there: two at 30 ms, then one at 50 ms
  // and one at 70 ms. A client's even sequence numbers pick the first
  // participant as coordinator, so each client spends its first id on a
  // local write.
  std::vector<Key> keys0, keys1;
  for (const auto& [key, value] : fx.data) {
    (fx.pmap.OwnerOf(key) == 0 ? keys0 : keys1).push_back(key);
  }
  std::vector<Key> dist_keys;  // Partition 0's keys the waves write.
  auto submit = [&](sim::Time at) {
    Client* c = fx.system->AddClient();
    const size_t k = dist_keys.size();
    dist_keys.push_back(keys0[2 * k + 1]);
    env.Schedule(at, [&, c, k] {
      c->ExecuteReadWrite({}, {WriteOp{keys1[2 * k], ToBytes("local")}},
                          [](RwResult) {});
      c->ExecuteReadWrite({}, {WriteOp{keys0[2 * k + 1], ToBytes("d0")},
                               WriteOp{keys1[2 * k + 1], ToBytes("d1")}},
                          [](RwResult) {});
    });
  };
  submit(sim::Millis(30));
  submit(sim::Millis(30));
  submit(sim::Millis(50));
  submit(sim::Millis(70));

  // Hold every 2PC message until 120 ms, so the groups become ready
  // together and one proposal commits them all.
  bool holding = true;
  std::vector<std::tuple<sim::ActorId, sim::ActorId, sim::MessagePtr>> held;
  env.Schedule(sim::Millis(120), [&] {
    holding = false;
    for (auto& [from, to, msg] : held) net.Send(from, to, msg);
    held.clear();
  });

  // Capture the leader's first proposal that commits anything, drop it,
  // and send the followers a forged copy signed with the leader's key.
  crypto::HmacSignatureScheme scheme(fx.config.total_replicas() + 4096,
                                     seed ^ 0x5ed);  // As System builds it.
  std::unique_ptr<crypto::Signer> leader_key = scheme.MakeSigner(leader_id);
  sim::MessagePtr captured;
  BatchId forged_id = kNoBatch;
  crypto::Digest forged_digest;
  size_t honest_groups = 0;
  size_t largest_group = 0;
  auto forge_and_send = [&] {
    wire::PrePrepareMsg forged =
        static_cast<const wire::PrePrepareMsg&>(*captured);
    storage::Batch& batch = forged.batch;
    std::vector<std::pair<size_t, size_t>> runs = GroupRuns(batch.committed);
    honest_groups = runs.size();
    for (const auto& [begin, end] : runs) {
      largest_group = std::max(largest_group, end - begin);
    }
    switch (GetParam()) {
      case SegmentForgery::kNone:
        break;
      case SegmentForgery::kDuplicatedRecord: {
        // Same writes and dependencies as the honest segment, so the
        // Merkle root and CD vector stay as they are.
        storage::CommitRecord commit = batch.committed.front();
        storage::CommitRecord abort = commit;
        abort.committed = false;
        batch.committed.insert(batch.committed.begin(), {abort, commit});
        break;
      }
      case SegmentForgery::kPartialGroup:
        for (const auto& [begin, end] : runs) {
          if (end - begin < 2) continue;
          batch.committed.erase(batch.committed.begin() +
                                static_cast<ptrdiff_t>(end - 1));
          break;
        }
        ResealAsLeader(leader, fx.pmap, &batch);
        break;
      case SegmentForgery::kSkippedGroup:
        if (runs.size() < 3) break;
        batch.committed.erase(
            batch.committed.begin() + static_cast<ptrdiff_t>(runs[1].first),
            batch.committed.begin() + static_cast<ptrdiff_t>(runs[1].second));
        ResealAsLeader(leader, fx.pmap, &batch);  // The LCE is kept.
        break;
    }
    forged_id = batch.id;
    forged_digest = batch.ComputeDigest();
    forged.leader_signature =
        leader_key->Sign(core::ProposalSignPayload(forged_digest));
    forged.leader_cert_share = leader_key->Sign(
        core::CertificatePayloadFor(0, batch, forged_digest).SignedPayload());
    Encoder view_bind;  // The bytes the leader's view-bind share signs.
    view_bind.PutString("transedge-linear-qc-view");
    view_bind.PutU32(0);
    view_bind.PutI64(batch.id);
    view_bind.PutRaw(forged_digest.bytes.data(), forged_digest.bytes.size());
    view_bind.PutU64(forged.view);
    forged.leader_view_share = leader_key->Sign(view_bind.Take());
    sim::MessagePtr msg =
        std::make_shared<const wire::PrePrepareMsg>(std::move(forged));
    for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
      net.Send(leader_id, fx.config.ReplicaNode(0, i), msg);
    }
  };

  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    auto type = static_cast<wire::MessageType>(msg->type());
    if (holding && (type == wire::MessageType::kCoordPrepare ||
                    type == wire::MessageType::kPrepared ||
                    type == wire::MessageType::kCommitRecord)) {
      held.emplace_back(from, to, msg);
      return false;
    }
    if (msg == captured) return false;
    if (captured == nullptr && from == leader_id &&
        type == wire::MessageType::kPrePrepare &&
        !static_cast<const wire::PrePrepareMsg&>(*msg)
             .batch.committed.empty()) {
      captured = msg;
      env.Schedule(0, forge_and_send);
      return false;
    }
    return true;
  });
  env.RunUntil(sim::Seconds(2));

  // The scenario the forgeries need: a two-record group among at least
  // three groups committed together.
  ASSERT_NE(captured, nullptr);
  ASSERT_GE(honest_groups, 3u);
  ASSERT_GE(largest_group, 2u);

  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    const core::TransEdgeNode& follower = *fx.system->node(0, i);
    Result<const storage::LogEntry*> entry = follower.log().Get(forged_id);
    const bool logged =
        entry.ok() && entry.value()->batch.ComputeDigest() == forged_digest;
    EXPECT_EQ(logged, GetParam() == SegmentForgery::kNone)
        << "replica " << i;
    EXPECT_TRUE(StoreMatchesTree(follower, fx.config.merkle_depth))
        << "replica " << i;
    // Whichever leader ends up committing them, every distributed write
    // reaches partition 0's followers.
    for (const Key& key : dist_keys) {
      Result<storage::VersionedValue> v = follower.store().Get(key);
      EXPECT_TRUE(v.ok() && v->value == ToBytes("d0"))
          << "replica " << i << " misses the write to " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Forgeries, ForgedSegmentTest,
    ::testing::Values(SegmentForgery::kNone, SegmentForgery::kDuplicatedRecord,
                      SegmentForgery::kPartialGroup,
                      SegmentForgery::kSkippedGroup),
    [](const ::testing::TestParamInfo<SegmentForgery>& info) {
      switch (info.param) {
        case SegmentForgery::kNone:
          return std::string("ReplayedHonestProposal");
        case SegmentForgery::kDuplicatedRecord:
          return std::string("DuplicatedRecord");
        case SegmentForgery::kPartialGroup:
          return std::string("PartialGroup");
        case SegmentForgery::kSkippedGroup:
          return std::string("SkippedGroup");
      }
      return std::string();
    });

// ---------------------------------------------------------------------------
// Augustus votes
// ---------------------------------------------------------------------------

// An Augustus read needs the votes of 2f+1 distinct members of the
// leader's cluster, its own included (f = 1: three of four). Replicas 2
// and 3 lose their vote replies; replica 1's arrives, and so does one
// more reply, sent from replica `voter_index` of `voter_partition`.
// Returns the read's result after the client timeout and the number of
// reads the leader served.
std::pair<RoResult, uint64_t> AugustusReadWithOneExtraVote(
    PartitionId voter_partition, uint32_t voter_index) {
  Fixture fx;
  sim::Environment& env = fx.system->env();
  sim::Network& net = env.network();
  const crypto::NodeId leader = fx.system->leader(0)->id();
  const crypto::NodeId replica1 = fx.config.ReplicaNode(0, 1);
  const crypto::NodeId extra_voter =
      fx.config.ReplicaNode(voter_partition, voter_index);
  bool extra_sent = false;
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    if (to != leader || static_cast<wire::MessageType>(msg->type()) !=
                            wire::MessageType::kAugustusVoteReply) {
      return true;
    }
    if (from == replica1 && !extra_sent) {
      extra_sent = true;
      env.Schedule(sim::Micros(10), [&net, extra_voter, to, msg] {
        net.Send(extra_voter, to, msg);
      });
      return true;
    }
    return from == extra_voter;
  });

  Client* client = fx.system->AddClient();
  std::optional<RoResult> ro;
  env.Schedule(sim::Millis(30), [&] {
    client->ExecuteAugustusReadOnly({fx.KeyIn(0)},
                                    [&](RoResult r) { ro = std::move(r); });
  });
  env.RunUntil(sim::Seconds(3));
  EXPECT_TRUE(extra_sent);
  EXPECT_TRUE(ro.has_value());
  return {ro.value_or(RoResult{}),
          fx.system->leader(0)->stats().augustus_ro_served};
}

TEST(AugustusVoteTest, RepeatedVoteCountsOnce) {
  auto [ro, served] = AugustusReadWithOneExtraVote(0, 1);
  EXPECT_EQ(served, 0u);
  EXPECT_FALSE(ro.status.ok());
}

TEST(AugustusVoteTest, VoteFromAnotherClusterIsIgnored) {
  auto [ro, served] = AugustusReadWithOneExtraVote(1, 1);
  EXPECT_EQ(served, 0u);
  EXPECT_FALSE(ro.status.ok());
}

// A failed Augustus read still releases its locks. Partition 1's leader
// loses every vote reply, so the read of {k0, k1} times out while both
// leaders hold its shared locks; later writes to k0 and k1 must commit,
// not abort as read-locked.
TEST(AugustusVoteTest, FailedReadReleasesItsLocks) {
  Fixture fx;
  sim::Environment& env = fx.system->env();
  const crypto::NodeId leader1 = fx.system->leader(1)->id();
  env.network().SetLinkFilter(
      [&](sim::ActorId, sim::ActorId to, const sim::MessagePtr& msg) {
        return to != leader1 || static_cast<wire::MessageType>(msg->type()) !=
                                    wire::MessageType::kAugustusVoteReply;
      });

  Client* reader = fx.system->AddClient();
  const Key k0 = fx.KeyIn(0), k1 = fx.KeyIn(1);
  std::optional<RoResult> ro;
  env.Schedule(sim::Millis(30), [&] {
    reader->ExecuteAugustusReadOnly({k0, k1},
                                    [&](RoResult r) { ro = std::move(r); });
  });
  env.RunUntil(sim::Millis(30) + fx.config.client_timeout + sim::Millis(50));
  ASSERT_TRUE(ro.has_value());
  EXPECT_EQ(ro->status.code(), StatusCode::kTimeout) << ro->status;

  Client* writer = fx.system->AddClient();
  std::vector<RwResult> writes;
  for (const Key& k : {k0, k1}) {
    writer->ExecuteReadWrite({}, {WriteOp{k, ToBytes("after")}},
                             [&](RwResult r) { writes.push_back(std::move(r)); });
  }
  env.RunUntil(env.now() + sim::Seconds(1));
  ASSERT_EQ(writes.size(), 2u);
  for (const RwResult& w : writes) EXPECT_TRUE(w.committed) << w.reason;
}

}  // namespace
}  // namespace transedge
