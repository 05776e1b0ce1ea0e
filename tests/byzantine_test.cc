// Byzantine fault-injection tests: the client-side defenses (Merkle
// verification, certificates, freshness) and the cluster-side defenses
// (re-validation, equivocation resistance) against a malicious leader.

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
  client->set_check_freshness(true);
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

}  // namespace
}  // namespace transedge
