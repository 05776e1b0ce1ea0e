// Admission sharding: the shard router, conflict detection across
// shards, the headline invariant — the committed store state is
// identical for every shard count (sharding only orders a batch by home
// shard and splits its construction cost, so it must never change what
// commits) — and golden hashes of the exact proposal stream per
// admission configuration.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/system.h"
#include "crypto/sha256.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::ConsensusKind;
using core::RwResult;
using core::ShardKeyRouter;
using core::ShardRouterKind;
using core::System;
using core::SystemConfig;

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardKeyRouterTest, SingleShardRoutesEverythingToZero) {
  ShardKeyRouter router(1, ShardRouterKind::kHash);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.ShardOf("key-" + std::to_string(i)), 0u);
  }
}

TEST(ShardKeyRouterTest, BothPoliciesAreDeterministicAndInRange) {
  for (ShardRouterKind kind :
       {ShardRouterKind::kHash, ShardRouterKind::kRange}) {
    ShardKeyRouter router(4, kind);
    for (int i = 0; i < 500; ++i) {
      Key key = "k" + std::to_string(i);
      uint32_t shard = router.ShardOf(key);
      EXPECT_LT(shard, 4u);
      EXPECT_EQ(router.ShardOf(key), shard);  // Stable.
    }
  }
}

TEST(ShardKeyRouterTest, BothPoliciesSpreadKeysAcrossAllShards) {
  for (ShardRouterKind kind :
       {ShardRouterKind::kHash, ShardRouterKind::kRange}) {
    ShardKeyRouter router(8, kind);
    std::set<uint32_t> hit;
    for (int i = 0; i < 2000; ++i) {
      hit.insert(router.ShardOf("k" + std::to_string(i)));
    }
    EXPECT_EQ(hit.size(), 8u) << "router kind " << static_cast<int>(kind);
  }
}

// ---------------------------------------------------------------------------
// Shard-count invariance of the committed state
// ---------------------------------------------------------------------------

SystemConfig SmallConfig(uint32_t shards, ShardRouterKind kind) {
  SystemConfig config;
  config.num_partitions = 2;
  config.f = 1;
  config.batch_interval = sim::Millis(5);
  config.merkle_depth = 10;
  config.pipeline_shards = shards;
  config.pipeline_shard_router = kind;
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
  /// Final committed value of every key the workload touched.
  std::map<Key, std::string> state;
  /// SHA-256 over every replica's log: batch id, batch digest and
  /// certificate Merkle root of each entry.
  std::string log_sha;
  /// SHA-256 over every client result in completion order: client
  /// index, txn id, committed, latency in µs.
  std::string results_sha;
};

/// Drives one deterministic mixed workload — concurrent disjoint local
/// writers, a sequential read-modify-write chain on one contended key,
/// and distributed cross-partition writers — and returns the final
/// committed value of every key the workload touched, read directly from
/// every replica's store (asserting the replicas of a cluster agree),
/// plus digests of every replica's log and every client's results.
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
  EXPECT_EQ(pending, 0) << "workload did not drain at "
                        << config.pipeline_shards << " shard(s)";

  // Collect the final committed state and check replica agreement.
  WorkloadRun run;
  for (const Key& key : touched) {
    PartitionId p = pmap.OwnerOf(key);
    auto value = system.node(p, 0)->store().Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (!value.ok()) continue;
    run.state[key] = ToString(value->value);
    for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
      auto other = system.node(p, i)->store().Get(key);
      EXPECT_TRUE(other.ok()) << key;
      if (!other.ok()) continue;
      EXPECT_EQ(ToString(other->value), run.state[key])
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
  run.log_sha = crypto::Sha256::Hash(logs.buffer()).ToHex();
  run.results_sha = crypto::Sha256::Hash(results.buffer()).ToHex();
  return run;
}

class ShardInvarianceTest
    : public ::testing::TestWithParam<ShardRouterKind> {};

TEST_P(ShardInvarianceTest, CommittedStateIsIdenticalForEveryShardCount) {
  std::map<Key, std::string> reference =
      RunWorkload(SmallConfig(1, GetParam())).state;
  ASSERT_FALSE(reference.empty());
  for (uint32_t shards : {2u, 3u, 4u, 8u}) {
    std::map<Key, std::string> state =
        RunWorkload(SmallConfig(shards, GetParam())).state;
    EXPECT_EQ(state, reference) << "state diverged at " << shards
                                << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(Routers, ShardInvarianceTest,
                         ::testing::Values(ShardRouterKind::kHash,
                                           ShardRouterKind::kRange));

// ---------------------------------------------------------------------------
// Cross-shard conflict detection
// ---------------------------------------------------------------------------

// Two transactions whose footprints overlap on one key but are homed on
// different shards must still conflict: admission checks the whole
// footprint against the one in-progress index, whatever shard each key
// routes to.
TEST(AdmissionShardingTest, CrossShardConflictsAreDetected) {
  SystemConfig config = SmallConfig(4, ShardRouterKind::kHash);
  System system(config, FastEnv());
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();

  // Find partition-0 keys on three distinct shards: the contended key k,
  // plus fillers a and b homed below and above k's shard respectively.
  ShardKeyRouter router(config.pipeline_shards, config.pipeline_shard_router);
  storage::PartitionMap pmap(config.num_partitions);
  std::map<uint32_t, std::vector<Key>> by_shard;
  for (const auto& [key, value] : data) {
    if (pmap.OwnerOf(key) == 0) by_shard[router.ShardOf(key)].push_back(key);
  }
  ASSERT_GE(by_shard.size(), 3u);
  auto it = by_shard.begin();
  Key a = it->second.front();          // Lowest shard -> txn1's home.
  Key k = (++it)->second.front();      // Middle shard -> the conflict key.
  Key b = (++it)->second.front();      // Higher shard -> txn2 homed at k's
                                       // shard, txn1 at a's.
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
  // passes admission, the other conflicts on k across shard boundaries.
  EXPECT_NE(r1->committed, r2->committed)
      << "r1: " << r1->reason << ", r2: " << r2->reason;
  const RwResult& aborted = r1->committed ? *r2 : *r1;
  EXPECT_NE(aborted.reason.find("conflict"), std::string::npos)
      << aborted.reason;
}

// After a batch applies, the whole footprint of a transaction spanning
// several shards must drain so its keys become writable again.
TEST(AdmissionShardingTest, CrossShardFootprintsDrainAfterApply) {
  SystemConfig config = SmallConfig(4, ShardRouterKind::kHash);
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
    // A multi-key write whose footprint spans several shards...
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
// admission configuration. The committed-state invariance above cannot
// see either: two runs may commit the same values through different
// batches at different times.
struct GoldenCase {
  const char* name;
  ConsensusKind consensus;
  uint32_t shards;
  ShardRouterKind router;
  bool async_apply;
  uint32_t pipeline_depth;
  const char* log_sha;
  const char* results_sha;
};

TEST(ProposalLogGoldenTest, LogsAndResultsMatchPinnedHashes) {
  const GoldenCase cases[] = {
      {"pbft/1", ConsensusKind::kPbft, 1, ShardRouterKind::kHash, false, 1,
       "57bd36507162378e6b9346c449ce1f1398604b89808b97ffc48d913617785fd8",
       "707c063e83f148a056474f745c83f6182c959978ca8244bcba198788c4e6f991"},
      {"pbft/4", ConsensusKind::kPbft, 4, ShardRouterKind::kHash, false, 1,
       "6e0296c688b797f41b78922b1594c01e5c6c0ab45c12cb1540a037d5c10c355b",
       "c9ae5c7a174a4795f049590dad45cd1bd4ed6ba42a478804bd70d2abf751933a"},
      {"pbft/4/range", ConsensusKind::kPbft, 4, ShardRouterKind::kRange,
       false, 1,
       "56e63a849ce0d2c91ec673c1f92830aeba331fd054e8e2d257d0277fb314b5f7",
       "50207811e9ce9eaf351bbac72c5116fd0a7940d132705d89b930e2d3c1d3f037"},
      {"linear_vote/1", ConsensusKind::kLinearVote, 1, ShardRouterKind::kHash,
       false, 1,
       "464c6ecc173e5b7b8873bfd2e947fea4144e91f50e8d0cea0f2ccc73152e85e8",
       "004b7c09d33ceb23ad751c05692a272fa021de2048a822a07bac481e4b9ad7fa"},
      {"linear_vote/4", ConsensusKind::kLinearVote, 4, ShardRouterKind::kHash,
       false, 1,
       "c171319fa2a03afa668e370988e45f731464f9e577b9354c8f18f08ad153d141",
       "5e01441ed141f12493533e3b00733b788cc689aca1257dead60501388b0c29e5"},
      {"linear_vote/4/range", ConsensusKind::kLinearVote, 4,
       ShardRouterKind::kRange, false, 1,
       "267c34b0dfe4a68da9371f03571f7d2b100508e1e8e6809d543b6921f61fde37",
       "36584bc592568d266aecddafb00f3e253f216a791a61848384b4b180e39421a6"},
      {"linear_vote/async/depth4/1", ConsensusKind::kLinearVote, 1,
       ShardRouterKind::kHash, true, 4,
       "3b5cde197fc9830cbfe6acb1410ba516380f56358b12ba9709ae6968ea5f906c",
       "0a42796de3ef1d37dfaece650e8526323b3707accbc8976f8a3ceaee85850ef8"},
      {"linear_vote/async/depth4/4", ConsensusKind::kLinearVote, 4,
       ShardRouterKind::kHash, true, 4,
       "908de7160d6b1395754339cfa518da0fda0bbbbbe203cfc8d1470833f5d38a28",
       "18be51393c5ae502350d2ac8b9fc050173d55d48c019c11f015c7d9233acc52c"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    SystemConfig config = SmallConfig(c.shards, c.router);
    config.consensus_kind = c.consensus;
    config.async_apply = c.async_apply;
    config.pipeline_depth = c.pipeline_depth;
    WorkloadRun run = RunWorkload(config);
    EXPECT_EQ(run.log_sha, c.log_sha);
    EXPECT_EQ(run.results_sha, c.results_sha);
  }
}

}  // namespace
}  // namespace transedge
