// Leader admission end to end: multi-key footprints conflict on any
// shared key and drain whole once their batch applies, and golden hashes
// pin the exact proposal stream — batch composition and order, every
// timestamp and every charged cost — per consensus engine and apply
// mode.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "crypto/sha256.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::ConsensusKind;
using core::RwResult;
using core::System;
using core::SystemConfig;

SystemConfig SmallConfig() {
  SystemConfig config;
  config.num_partitions = 2;
  config.f = 1;
  config.batch_interval = sim::Millis(5);
  config.merkle_depth = 10;
  return config;
}

sim::EnvironmentOptions FastEnv() {
  sim::EnvironmentOptions opts;
  opts.seed = 11;
  opts.inter_site_latency = sim::Millis(2);
  return opts;
}

std::vector<std::pair<Key, Value>> TestData(uint32_t partitions) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = 400;
  wopts.value_size = 16;
  return workload::KeySpace(wopts, partitions).InitialData();
}

/// What one run of the mixed workload leaves behind.
struct WorkloadRun {
  /// SHA-256 over every replica's log: batch id, batch digest and
  /// certificate Merkle root of each entry.
  std::string log_sha;
  /// SHA-256 over every client result in completion order: client
  /// index, txn id, committed, latency in µs.
  std::string results_sha;
};

/// Drives one deterministic mixed workload — concurrent disjoint local
/// writers, a sequential read-modify-write chain on one contended key,
/// and distributed cross-partition writers, asserts that the replicas of
/// each cluster agree on every key it touched, and returns digests of
/// every replica's log and every client's results.
WorkloadRun RunWorkload(const SystemConfig& config) {
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();

  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> part0_keys, part1_keys;
  for (const auto& [key, value] : data) {
    (pmap.OwnerOf(key) == 0 ? part0_keys : part1_keys).push_back(key);
  }
  // The workload below needs 3 concurrent writers x 4 keys, one
  // contended key, and 3 distributed pairs per partition.
  if (part0_keys.size() < 16 || part1_keys.size() < 16) {
    ADD_FAILURE() << "key space too small for the workload";
    return {};
  }
  std::vector<Key> touched;

  int pending = 0;
  Encoder results;
  auto record = [&](uint32_t client_index, const RwResult& r) {
    results.PutU32(client_index);
    results.PutU64(r.txn_id);
    results.PutBool(r.committed);
    results.PutI64(r.latency);
  };
  auto done_for = [&](uint32_t client_index) {
    return [&, client_index](RwResult r) {
      EXPECT_TRUE(r.committed) << r.reason;
      record(client_index, r);
      --pending;
    };
  };
  uint32_t next_client = 0;

  // (a) Concurrent disjoint local writers on partition 0.
  for (int c = 0; c < 3; ++c) {
    Client* client = system.AddClient();
    auto done = done_for(next_client++);
    system.env().Schedule(sim::Millis(20), [&, client, c, done] {
      for (int i = 0; i < 4; ++i) {
        Key key = part0_keys[static_cast<size_t>(c * 4 + i)];
        touched.push_back(key);
        ++pending;
        client->ExecuteReadWrite(
            {}, {WriteOp{key, ToBytes("w" + std::to_string(c * 4 + i))}},
            done);
      }
    });
  }

  // (b) Sequential read-modify-write chain on one contended key. The
  // chain closure must outlive the whole run (commit callbacks re-enter
  // it), so it lives at function scope, not in the scheduling block.
  auto chain = std::make_shared<std::function<void(int)>>();
  {
    Client* client = system.AddClient();
    const uint32_t client_index = next_client++;
    Key hot = part0_keys[12];
    touched.push_back(hot);
    auto* chain_fn = chain.get();
    *chain = [&, client, client_index, hot, chain_fn](int step) {
      if (step >= 5) return;
      ++pending;
      client->ExecuteReadWrite(
          {hot}, {WriteOp{hot, ToBytes("chain" + std::to_string(step))}},
          [&, client_index, chain_fn, step](RwResult r) {
            EXPECT_TRUE(r.committed) << r.reason;
            record(client_index, r);
            --pending;
            (*chain_fn)(step + 1);
          });
    };
    system.env().Schedule(sim::Millis(20), [chain] { (*chain)(0); });
  }

  // (c) Distributed writers over disjoint cross-partition pairs.
  for (int c = 0; c < 3; ++c) {
    Client* client = system.AddClient();
    auto done = done_for(next_client++);
    Key a = part0_keys[static_cast<size_t>(13 + c)];
    Key b = part1_keys[static_cast<size_t>(c)];
    touched.push_back(a);
    touched.push_back(b);
    system.env().Schedule(sim::Millis(25), [&, client, a, b, c, done] {
      ++pending;
      client->ExecuteReadWrite(
          {}, {WriteOp{a, ToBytes("d" + std::to_string(c))},
               WriteOp{b, ToBytes("d" + std::to_string(c))}},
          done);
    });
  }

  system.env().RunUntil(sim::Seconds(5));
  EXPECT_EQ(pending, 0) << "workload did not drain";

  // The replicas of each cluster agree on every touched key.
  for (const Key& key : touched) {
    PartitionId p = pmap.OwnerOf(key);
    auto value = system.node(p, 0)->store().Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (!value.ok()) continue;
    for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
      auto other = system.node(p, i)->store().Get(key);
      EXPECT_TRUE(other.ok()) << key;
      if (!other.ok()) continue;
      EXPECT_EQ(other->value, value->value)
          << "replica " << i << " diverges on " << key;
    }
  }

  Encoder logs;
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const storage::SmrLog& log = system.node(p, i)->log();
      logs.PutU32(p);
      logs.PutU32(i);
      for (BatchId id = log.FirstBatchId(); id <= log.LastBatchId(); ++id) {
        const storage::LogEntry& entry = *log.Get(id).value();
        const crypto::Digest digest = entry.batch.ComputeDigest();
        logs.PutI64(id);
        logs.PutRaw(digest.bytes.data(), digest.bytes.size());
        logs.PutRaw(entry.certificate.merkle_root.bytes.data(),
                    entry.certificate.merkle_root.bytes.size());
      }
    }
  }
  WorkloadRun run;
  run.log_sha = crypto::Sha256::Hash(logs.buffer()).ToHex();
  run.results_sha = crypto::Sha256::Hash(results.buffer()).ToHex();
  return run;
}

// ---------------------------------------------------------------------------
// Multi-key footprints
// ---------------------------------------------------------------------------

// Two transactions whose write sets overlap on one key out of three must
// conflict: admission checks the whole footprint against the one
// in-progress index.
TEST(AdmissionFootprintTest, MultiKeyFootprintsConflictOnAnySharedKey) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();

  // Three partition-0 keys: txn1 writes {a, k}, txn2 writes {k, b}, so
  // the footprints share only k.
  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> keys;
  for (const auto& [key, value] : data) {
    if (pmap.OwnerOf(key) == 0) keys.push_back(key);
    if (keys.size() == 3) break;
  }
  ASSERT_EQ(keys.size(), 3u);
  const Key& a = keys[0];
  const Key& k = keys[1];
  const Key& b = keys[2];

  std::optional<RwResult> r1, r2;
  Client* c1 = system.AddClient();
  Client* c2 = system.AddClient();
  system.env().Schedule(sim::Millis(20), [&] {
    c1->ExecuteReadWrite({}, {WriteOp{a, ToBytes("t1")},
                              WriteOp{k, ToBytes("t1")}},
                         [&](RwResult r) { r1 = std::move(r); });
    c2->ExecuteReadWrite({}, {WriteOp{k, ToBytes("t2")},
                              WriteOp{b, ToBytes("t2")}},
                         [&](RwResult r) { r2 = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(2));

  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  // Issued back-to-back into the same in-progress batch: exactly one
  // passes admission, the other conflicts on k.
  EXPECT_NE(r1->committed, r2->committed)
      << "r1: " << r1->reason << ", r2: " << r2->reason;
  const RwResult& aborted = r1->committed ? *r2 : *r1;
  EXPECT_NE(aborted.reason.find("conflict"), std::string::npos)
      << aborted.reason;
}

// After a batch applies, the whole footprint of a multi-key transaction
// must drain so its keys become writable again.
TEST(AdmissionFootprintTest, MultiKeyFootprintDrainsWholeAfterApply) {
  SystemConfig config = SmallConfig();
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();

  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> keys;
  for (const auto& [key, value] : data) {
    if (pmap.OwnerOf(key) == 0) keys.push_back(key);
    if (keys.size() == 4) break;
  }
  ASSERT_EQ(keys.size(), 4u);

  Client* client = system.AddClient();
  std::optional<RwResult> first, second;
  system.env().Schedule(sim::Millis(20), [&] {
    // A four-key write...
    client->ExecuteReadWrite({}, {WriteOp{keys[0], ToBytes("v1")},
                                  WriteOp{keys[1], ToBytes("v1")},
                                  WriteOp{keys[2], ToBytes("v1")},
                                  WriteOp{keys[3], ToBytes("v1")}},
                             [&](RwResult r) {
                               first = std::move(r);
                               // ...then, after it applied, the exact
                               // same footprint again.
                               client->ExecuteReadWrite(
                                   {}, {WriteOp{keys[0], ToBytes("v2")},
                                        WriteOp{keys[1], ToBytes("v2")},
                                        WriteOp{keys[2], ToBytes("v2")},
                                        WriteOp{keys[3], ToBytes("v2")}},
                                   [&](RwResult r2) {
                                     second = std::move(r2);
                                   });
                             });
  });
  system.env().RunUntil(sim::Seconds(2));

  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->committed) << first->reason;
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->committed) << second->reason;
  EXPECT_EQ(ToString(system.node(0, 0)->store().Get(keys[0])->value), "v2");
  // Nothing in progress and the dedup set fully drained on the leader.
  EXPECT_EQ(system.leader(0)->in_progress_size(), 0u);
  EXPECT_EQ(system.leader(0)->seen_txn_count(), 0u);
}

// ---------------------------------------------------------------------------
// Golden proposal logs
// ---------------------------------------------------------------------------

// Pins the exact proposal stream — batch composition and order, every
// timestamp, every charged cost (through client latencies) — for each
// consensus engine. A committed-state comparison cannot see either: two
// runs may commit the same values through different batches at
// different times.
struct GoldenCase {
  const char* name;
  ConsensusKind consensus;
  const char* log_sha;
  const char* results_sha;
};

TEST(ProposalLogGoldenTest, LogsAndResultsMatchPinnedHashes) {
  const GoldenCase cases[] = {
      {"pbft", ConsensusKind::kPbft,
       "57bd36507162378e6b9346c449ce1f1398604b89808b97ffc48d913617785fd8",
       "fc5fd87a649d7e6f0cf7d41fea0ce59ab2b82de6456c87b02a830a1c60f3c3c3"},
      {"linear_vote", ConsensusKind::kLinearVote,
       "3b5cde197fc9830cbfe6acb1410ba516380f56358b12ba9709ae6968ea5f906c",
       "1f0fc6a340a93502694ee633233ac8dd6859aa4c7189ea1b282fca96ab02963d"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    SystemConfig config = SmallConfig();
    config.consensus_kind = c.consensus;
    WorkloadRun run = RunWorkload(config);
    EXPECT_EQ(run.log_sha, c.log_sha);
    EXPECT_EQ(run.results_sha, c.results_sha);
  }
}

}  // namespace
}  // namespace transedge
