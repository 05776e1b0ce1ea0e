// Regression tests for the admission-pipeline lifecycle bugs that PR 1's
// decomposition exposed: clients waiting on admissions abandoned by a
// view change used to hang until the 2 s client timeout; applied
// transactions never drained the leader's dedup set; and a round-2
// read-only request with an impossible dependency parked forever.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

  explicit Fixture(uint32_t partitions = 1, uint32_t f = 1, uint64_t seed = 77,
                   sim::Time latency_jitter = sim::Micros(100))
      : pmap(partitions) {
    config.num_partitions = partitions;
    config.f = f;
    config.batch_interval = sim::Millis(5);
    config.view_change_timeout = sim::Millis(80);
    config.merkle_depth = 8;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = seed;
    env_opts.inter_site_latency = sim::Millis(1);
    env_opts.latency_jitter = latency_jitter;
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
      if (pmap.OwnerOf(key) == p && skip-- == 0) return key;
    }
    ADD_FAILURE();
    return "";
  }
};

// A view change used to clear the in-progress queues but never answer
// local_waiting_clients_: the client sat out its full 2 s timeout before
// retrying. The leader now sends a retryable "view change" abort, so the
// client re-issues against the new leader immediately and commits well
// before the timeout could even fire once.
TEST(PipelineLifecycleTest, ViewChangeAbortsWaitingClientsWhoThenCommit) {
  // f = 2 so a half-split equivocation can never reach the 2f+1 quorum:
  // the genesis proposal stalls and the cluster must change views while
  // the client's admission is parked at the equivocator.
  Fixture fx(/*partitions=*/1, /*f=*/2);
  fx.system->node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);
  Client* client = fx.system->AddClient();

  std::optional<RwResult> result;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{fx.KeyIn(0), ToBytes("survives")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(10));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  // The abort-and-retry path resolves in view-change time (~100 ms), not
  // client-timeout time (>= 2 s) — this is the regression assertion.
  EXPECT_LT(result->latency, sim::Millis(1500));
  EXPECT_EQ(client->stats().timeouts, 0u);
  // The demoted leader holds no orphaned admission state.
  EXPECT_EQ(fx.system->node(0, 0)->in_progress_size(), 0u);
  EXPECT_EQ(fx.system->node(0, 0)->seen_txn_count(), 0u);
}

// OnBatchApplied used to early-return on non-leaders and never erase
// applied transactions from seen_txns_, so the dedup set grew without
// bound on every replica that ever led. It must drain as batches apply.
TEST(PipelineLifecycleTest, DedupSetDrainsAsBatchesApply) {
  Fixture fx(/*partitions=*/1, /*f=*/1);
  Client* client = fx.system->AddClient();

  int committed = 0;
  auto loop = std::make_shared<std::function<void()>>();
  auto* loop_fn = loop.get();
  *loop = [&, loop_fn] {
    if (committed >= 20) return;
    Key key = fx.KeyIn(0, static_cast<size_t>(committed % 5));
    client->ExecuteReadWrite({}, {WriteOp{key, ToBytes("w")}},
                             [&, loop_fn](RwResult r) {
                               ASSERT_TRUE(r.committed) << r.reason;
                               ++committed;
                               (*loop_fn)();
                             });
  };
  fx.system->env().Schedule(sim::Millis(30), *loop);
  fx.system->env().RunUntil(sim::Seconds(5));

  ASSERT_EQ(committed, 20);
  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(fx.system->node(0, i)->seen_txn_count(), 0u)
        << "replica " << i << " retains dedup entries for applied txns";
    EXPECT_EQ(fx.system->node(0, i)->in_progress_size(), 0u);
  }
}

// Probe actor for hand-crafted wire traffic.
struct ReplyProbe : sim::Actor {
  std::vector<wire::RoReply> replies;
  void OnMessage(sim::ActorId, const sim::MessagePtr& msg) override {
    if (static_cast<wire::MessageType>(msg->type()) ==
        wire::MessageType::kRoReply) {
      replies.push_back(static_cast<const wire::RoReply&>(*msg));
    }
  }
};

// A round-2 request whose min_lce lies beyond anything this cluster
// could have certified used to park forever (and, had the log window
// moved, the reply builder would have dereferenced an error Result). It
// now draws an explicit unserviceable kNoBatch reply.
TEST(RoWindowTest, OutOfWindowRound2RequestGetsNoBatch) {
  Fixture fx(/*partitions=*/1, /*f=*/1);
  fx.system->env().RunUntil(sim::Millis(100));  // Genesis certified.

  ReplyProbe probe;
  sim::ActorId probe_id = fx.config.ClientNode(1000);
  fx.system->env().network().Register(probe_id, /*site=*/0, &probe);

  const core::TransEdgeNode* leader = fx.system->leader(0);
  wire::RoBatchRequest bogus;
  bogus.request_id = 0xdead;
  bogus.reply_to = probe_id;
  bogus.keys = {fx.KeyIn(0)};
  // Far beyond the log head + retained snapshot window.
  bogus.min_lce = leader->log().LastBatchId() +
                  static_cast<BatchId>(fx.config.snapshot_history) + 100;
  fx.system->env().network().Send(probe_id, leader->id(),
                                  wire::ShareMsg(std::move(bogus)));
  fx.system->env().RunUntil(fx.system->env().now() + sim::Millis(200));

  ASSERT_EQ(probe.replies.size(), 1u);
  EXPECT_EQ(probe.replies[0].request_id, 0xdeadu);
  EXPECT_EQ(probe.replies[0].batch_id, kNoBatch);
  EXPECT_EQ(fx.system->leader(0)->stats().ro_round2_rejected, 1u);
  EXPECT_EQ(fx.system->leader(0)->stats().ro_round2_parked, 0u);
}

// A *satisfiable* future dependency must still park and then be served
// once the LCE advances — the horizon guard must not over-reject.
TEST(RoWindowTest, NearFutureDependencyStillParks) {
  Fixture fx(/*partitions=*/2, /*f=*/1);
  fx.system->env().RunUntil(sim::Millis(100));

  ReplyProbe probe;
  sim::ActorId probe_id = fx.config.ClientNode(1001);
  fx.system->env().network().Register(probe_id, /*site=*/0, &probe);

  const core::TransEdgeNode* leader = fx.system->leader(0);
  wire::RoBatchRequest req;
  req.request_id = 0xbeef;
  req.reply_to = probe_id;
  req.keys = {fx.KeyIn(0)};
  // One past the current LCE: parked until a distributed commit lands.
  req.min_lce = leader->log().back().batch.ro.lce + 1;
  fx.system->env().network().Send(probe_id, leader->id(),
                                  wire::ShareMsg(std::move(req)));
  fx.system->env().RunUntil(fx.system->env().now() + sim::Millis(50));
  EXPECT_EQ(fx.system->leader(0)->stats().ro_round2_parked, 1u);
  EXPECT_TRUE(probe.replies.empty());

  // A distributed transaction commits, the LCE advances, the parked
  // request is served with a real batch.
  Client* client = fx.system->AddClient();
  std::optional<RwResult> rw;
  client->ExecuteReadWrite({}, {WriteOp{fx.KeyIn(0), ToBytes("x")},
                                WriteOp{fx.KeyIn(1), ToBytes("y")}},
                           [&](RwResult r) { rw = std::move(r); });
  fx.system->env().RunUntil(fx.system->env().now() + sim::Seconds(3));

  ASSERT_TRUE(rw.has_value());
  EXPECT_TRUE(rw->committed) << rw->reason;
  ASSERT_EQ(probe.replies.size(), 1u);
  EXPECT_NE(probe.replies[0].batch_id, kNoBatch);
  EXPECT_GE(probe.replies[0].lce, 0);
}

// ---------------------------------------------------------------------------
// The apply worker: the apply charge, the applied watermark and client
// reads
// ---------------------------------------------------------------------------

struct AsyncApplyFixture {
  SystemConfig config;
  std::unique_ptr<System> system;
  std::vector<std::pair<Key, Value>> data;
  storage::PartitionMap pmap;

  explicit AsyncApplyFixture(sim::Time apply_per_txn)
      : pmap(1) {
    config.num_partitions = 1;
    config.f = 1;
    config.consensus_kind = core::ConsensusKind::kLinearVote;
    config.batch_interval = sim::Millis(5);
    config.view_change_timeout = sim::Millis(500);
    config.merkle_depth = 8;
    config.cost.apply_per_txn = apply_per_txn;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = 77;
    env_opts.inter_site_latency = sim::Millis(1);
    system = std::make_unique<System>(config, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 200;
    wopts.value_size = 8;
    data = workload::KeySpace(wopts, 1).InitialData();
    system->Preload(data);
    system->Start();
  }
};

// With apply cost inflated ~100×, the decided watermark (the log tail)
// runs ahead of last_applied while the apply worker grinds; read-only
// clients served from the applied snapshot window must still see
// committed data, and the watermarks must converge once the workload
// drains.
TEST(AsyncApplyTest, ReadsServeAppliedSnapshotWhileApplyLagsDecided) {
  AsyncApplyFixture fx(/*apply_per_txn=*/sim::Micros(600));
  Client* client = fx.system->AddClient();

  int committed = 0;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    for (int i = 0; i < 24; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{fx.data[static_cast<size_t>(i)].first,
                       ToBytes("v" + std::to_string(i))}},
          [&](core::RwResult r) {
            EXPECT_TRUE(r.committed) << r.reason;
            ++committed;
          });
    }
  });

  // Sample the watermark gap while the run is hot. The probe reads both
  // watermarks off the leader; any positive gap proves the storage stack
  // left the decision critical path.
  BatchId max_lag = 0;
  std::function<void()> probe = [&] {
    const core::TransEdgeNode* node = fx.system->node(0, 0);
    BatchId decided = node->log().LastBatchId();
    BatchId applied = node->last_applied();
    if (decided != kNoBatch && decided > applied) {
      max_lag = std::max(max_lag, decided - applied);
    }
    if (fx.system->env().now() < sim::Seconds(2)) {
      fx.system->env().Schedule(sim::Millis(1), probe);
    }
  };
  fx.system->env().Schedule(sim::Millis(31), probe);

  fx.system->env().RunUntil(sim::Seconds(8));
  EXPECT_EQ(committed, 24);
  EXPECT_GT(max_lag, 0) << "apply never lagged decided: the apply charge "
                           "is not on the apply worker";

  // Drained: the watermarks converge on every replica.
  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    const core::TransEdgeNode* node = fx.system->node(0, i);
    EXPECT_EQ(node->last_applied(), node->log().LastBatchId())
        << "replica " << i;
  }

  // Authenticated reads over written keys verify and return the
  // committed values (served from the applied snapshot window).
  std::optional<core::RoResult> ro;
  client->ExecuteReadOnly({fx.data[0].first, fx.data[5].first},
                          [&](core::RoResult r) { ro = std::move(r); });
  fx.system->env().RunUntil(fx.system->env().now() + sim::Seconds(2));
  ASSERT_TRUE(ro.has_value());
  ASSERT_TRUE(ro->status.ok()) << ro->status;
  ASSERT_TRUE(ro->values.at(fx.data[0].first).has_value());
  EXPECT_EQ(ToString(*ro->values.at(fx.data[0].first)), "v0");
  ASSERT_TRUE(ro->values.at(fx.data[5].first).has_value());
  EXPECT_EQ(ToString(*ro->values.at(fx.data[5].first)), "v5");
}

// Addressee of the test's single-key reads and fresh watch subscribes;
// their replies are checked where the leader sends them.
struct ReadProbe : sim::Actor {
  void OnMessage(sim::ActorId, const sim::MessagePtr&) override {}
};

// The replica installs each decided batch at decide time, so while apply
// lags the store and tree already hold writes clients may not see yet.
// Every client-facing read must still answer as of last_applied: a
// read-write read, an Augustus read and a fresh watch seed, each taken
// while the log tail is ahead of last_applied and the store holds a
// newer version of a key it returns. Before the first apply a read sees
// the preloaded state, version 0.
TEST(AsyncApplyTest, ClientReadsAnswerAsOfLastApplied) {
  AsyncApplyFixture fx(/*apply_per_txn=*/sim::Micros(600));
  const core::TransEdgeNode* leader = fx.system->node(0, 0);
  const Key untouched = fx.data[40].first;
  // Created by the second wave, inside the watched range.
  const Key fresh = fx.data[0].first + "-new";

  ReadProbe probe;
  const sim::ActorId probe_id = fx.config.ClientNode(1001);
  fx.system->env().network().Register(probe_id, /*site=*/0, &probe);

  // Replies taken while the store held a version newer than last_applied
  // of some returned key, per reply type; seeds taken while `fresh` was
  // in the store but not yet applied; and reads of `untouched` taken
  // before the genesis batch applied.
  std::map<wire::MessageType, int> lagging;
  int fresh_unapplied = 0;
  int before_first_apply = 0;
  fx.system->env().network().SetLinkFilter(
      [&](sim::ActorId from, sim::ActorId, const sim::MessagePtr& msg) {
        if (from != leader->id()) return true;
        const auto type = static_cast<wire::MessageType>(msg->type());
        std::vector<const wire::AuthenticatedRead*> reads;
        wire::AuthenticatedRead single;
        if (type == wire::MessageType::kClientReadReply) {
          const auto& reply = static_cast<const wire::ClientReadReply&>(*msg);
          single.key = reply.key;
          single.found = reply.found;
          single.value = reply.value;
          single.version = reply.version;
          reads.push_back(&single);
        } else if (type == wire::MessageType::kAugustusRoReply) {
          for (const auto& read :
               static_cast<const wire::AugustusRoReply&>(*msg).entries) {
            reads.push_back(&read);
          }
        } else if (type == wire::MessageType::kWatchDelta) {
          // Only seeds: a live push carries one batch's writes.
          const auto& seed = static_cast<const wire::WatchDeltaMsg&>(*msg);
          if (seed.prev_batch_id != kNoBatch) return true;
          EXPECT_EQ(seed.batch_id, leader->last_applied());
          if (leader->store().LatestVersion(fresh) > seed.batch_id) {
            ++fresh_unapplied;
          }
          for (const auto& read : seed.body->entries) reads.push_back(&read);
        } else {
          return true;
        }
        const BatchId applied = leader->last_applied();
        bool ahead = false;
        for (const wire::AuthenticatedRead* read : reads) {
          EXPECT_TRUE(read->found) << read->key;
          EXPECT_LE(read->version, std::max<BatchId>(applied, 0))
              << "type " << static_cast<int>(type) << " key " << read->key;
          if (applied != kNoBatch &&
              leader->store().LatestVersion(read->key) > applied) {
            ahead = true;
          }
          if (applied == kNoBatch && read->key == untouched) {
            EXPECT_EQ(read->version, 0);
            EXPECT_EQ(read->value, fx.data[40].second);
            ++before_first_apply;
          }
        }
        if (ahead && leader->log().LastBatchId() > applied) ++lagging[type];
        return true;
      });

  // Two waves of 24 blind writes, each applied well after it decides;
  // the second also creates `fresh`.
  Client* writer = fx.system->AddClient();
  int committed = 0;
  auto write = [&](const Key& key, const std::string& value) {
    writer->ExecuteReadWrite({}, {WriteOp{key, ToBytes(value)}},
                             [&](RwResult r) {
                               EXPECT_TRUE(r.committed) << r.reason;
                               ++committed;
                             });
  };
  for (sim::Time at : {sim::Millis(30), sim::Millis(100)}) {
    fx.system->env().Schedule(at, [&, at] {
      for (int i = 0; i < 24; ++i) {
        write(fx.data[static_cast<size_t>(i)].first,
              std::to_string(at) + "-" + std::to_string(i));
      }
      if (at == sim::Millis(100)) write(fresh, "fresh");
    });
  }

  uint64_t next_id = 1;
  std::function<void()> poll = [&] {
    for (const Key& key : {fx.data[next_id % 24].first, untouched}) {
      wire::ClientReadRequest read;
      read.request_id = next_id++;
      read.reply_to = probe_id;
      read.key = key;
      fx.system->env().network().Send(probe_id, leader->id(),
                                      wire::ShareMsg(std::move(read)));
    }
    wire::WatchSubscribeRequest watch;
    watch.watch_id = 1;
    watch.reply_to = probe_id;
    watch.range_lo = fx.data[0].first;
    watch.range_hi = fx.data[23].first;
    fx.system->env().network().Send(probe_id, leader->id(),
                                    wire::ShareMsg(std::move(watch)));
    if (fx.system->env().now() < sim::Millis(200)) {
      fx.system->env().Schedule(sim::Millis(1), poll);
    }
  };
  fx.system->env().Schedule(0, poll);

  // Augustus reads start once the second wave is admitted: their shared
  // locks would otherwise abort its writers.
  Client* reader = fx.system->AddClient();
  std::function<void()> augustus = [&] {
    std::vector<Key> keys;
    for (int i = 0; i < 24; ++i) {
      keys.push_back(fx.data[static_cast<size_t>(i)].first);
    }
    reader->ExecuteAugustusReadOnly(std::move(keys), [&](core::RoResult r) {
      EXPECT_TRUE(r.status.ok()) << r.status;
      if (fx.system->env().now() < sim::Millis(200)) {
        fx.system->env().Schedule(sim::Millis(1), augustus);
      }
    });
  };
  fx.system->env().Schedule(sim::Millis(103), augustus);

  fx.system->env().RunUntil(sim::Seconds(2));
  EXPECT_EQ(committed, 49);
  EXPECT_GT(before_first_apply, 0);
  EXPECT_GT(fresh_unapplied, 0);
  EXPECT_GT(lagging[wire::MessageType::kClientReadReply], 0);
  EXPECT_GT(lagging[wire::MessageType::kAugustusRoReply], 0);
  EXPECT_GT(lagging[wire::MessageType::kWatchDelta], 0);
}

// ---------------------------------------------------------------------------
// View-change abort drain: reply order must be deterministic
// ---------------------------------------------------------------------------

// Probe recording client-facing commit replies in arrival order.
struct CommitReplyProbe : sim::Actor {
  std::vector<wire::CommitReply> replies;
  void OnMessage(sim::ActorId, const sim::MessagePtr& msg) override {
    if (static_cast<wire::MessageType>(msg->type()) ==
        wire::MessageType::kCommitReply) {
      replies.push_back(static_cast<const wire::CommitReply&>(*msg));
    }
  }
};

// Parks `count` admissions (scrambled TxnIds) at a stalled leader, lets
// the view change abort them all, and returns the TxnIds in the order
// the abort replies arrived.
std::vector<TxnId> AbortDrainOrder(uint64_t seed, size_t count) {
  // Zero link jitter: all abort replies leave at the same instant, so
  // arrival order at the probe is exactly the leader's send order (the
  // event queue breaks timestamp ties by insertion) — the thing the
  // sorted drain must make deterministic.
  Fixture fx(/*partitions=*/1, /*f=*/2, seed, /*latency_jitter=*/0);
  fx.system->node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);

  CommitReplyProbe probe;
  sim::ActorId probe_id = fx.config.ClientNode(1002);
  fx.system->env().network().Register(probe_id, /*site=*/0, &probe);

  fx.system->env().Schedule(sim::Millis(30), [&] {
    for (size_t i = 0; i < count; ++i) {
      // Scrambled submission order: (i * 5) mod count visits every
      // residue once for count coprime with 5.
      uint32_t k = static_cast<uint32_t>((i * 5) % count);
      wire::CommitRequest req;
      req.reply_to = probe_id;
      req.txn.id = MakeTxnId(2000 + k, 1);
      req.txn.write_set = {WriteOp{fx.KeyIn(0, k), ToBytes("w")}};
      req.txn.participants = {0};
      fx.system->env().network().Send(probe_id, fx.system->leader(0)->id(),
                                      wire::ShareMsg(std::move(req)));
    }
  });
  fx.system->env().RunUntil(sim::Seconds(2));

  std::vector<TxnId> order;
  for (const wire::CommitReply& reply : probe.replies) {
    EXPECT_FALSE(reply.committed);
    EXPECT_TRUE(reply.retryable) << reply.reason;
    order.push_back(reply.txn_id);
  }
  return order;
}

// local_waiting_clients_ is an unordered_map; draining it directly on a
// view change would emit the abort replies — externally visible
// messages — in hash-table order, forking the downstream event schedule
// between hash implementations. The drain must sort by TxnId first, so
// the reply sequence is identical run to run and seed to seed.
TEST(ViewChangeAbortOrderTest, AbortRepliesDrainInTxnIdOrder) {
  std::vector<TxnId> order = AbortDrainOrder(/*seed=*/77, /*count=*/8);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));

  // Same seed: bit-identical replay.
  EXPECT_EQ(AbortDrainOrder(/*seed=*/77, /*count=*/8), order);
  // Different network seed: timing jitter differs, the drain order must
  // not (same scrambled ids, still TxnId-sorted).
  EXPECT_EQ(AbortDrainOrder(/*seed=*/1234, /*count=*/8), order);
}

// ---------------------------------------------------------------------------
// A view change never re-executes a decided transaction
// ---------------------------------------------------------------------------

// Times a view change to land while the batch that carries a local write
// is decided but still applying. Followers forward an Augustus release
// to their leader and demand that its log advance; the idle leader logs
// nothing, so two releases change the view. A 3 s apply keeps the batch
// applying across it.
class DecidedAcrossViewChangeTest
    : public ::testing::TestWithParam<core::ConsensusKind> {};

TEST_P(DecidedAcrossViewChangeTest, LocalWriteStillApplyingIsNotRetried) {
  SystemConfig config;
  config.num_partitions = 1;
  config.f = 1;
  config.consensus_kind = GetParam();
  config.merkle_depth = 8;
  config.cost.apply_per_txn = sim::Seconds(3);
  config.client_timeout = sim::Seconds(30);
  sim::EnvironmentOptions env_opts;
  env_opts.seed = 5;
  System system(config, env_opts);
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 8;
  auto data = workload::KeySpace(wopts, 1).InitialData();
  system.Preload(data);
  system.Start();

  CommitReplyProbe probe;
  const sim::ActorId probe_id = config.ClientNode(1003);
  system.env().network().Register(probe_id, /*site=*/0, &probe);

  Client* client = system.AddClient();
  std::optional<RwResult> first, later;
  system.env().Schedule(sim::Millis(100), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("first")}},
                             [&](RwResult r) { first = std::move(r); });
  });
  system.env().Schedule(sim::Millis(150), [&] {
    for (uint32_t follower : {1u, 2u}) {
      wire::AugustusRelease release;
      release.request_id = 1;
      system.env().network().Send(probe_id, config.ReplicaNode(0, follower),
                                  wire::ShareMsg(std::move(release)));
    }
  });
  // The premise: by 2 s the view changed, and replica 0, which admitted
  // the write, has decided its batch but not applied it.
  bool premise = false;
  system.env().Schedule(sim::Seconds(2), [&] {
    const core::TransEdgeNode* old_leader = system.node(0, 0);
    premise = old_leader->view() > 0 &&
              old_leader->last_applied() < old_leader->log().LastBatchId();
  });
  Client* later_client = system.AddClient();
  system.env().Schedule(sim::Seconds(10), [&] {
    later_client->ExecuteReadWrite(
        {}, {WriteOp{data[1].first, ToBytes("later")}},
        [&](RwResult r) { later = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(15));

  ASSERT_TRUE(premise) << "the view did not change while the batch applied";
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->committed) << first->reason;
  ASSERT_TRUE(later.has_value());
  EXPECT_TRUE(later->committed) << later->reason;
  EXPECT_LT(later->latency, config.client_timeout);
  EXPECT_EQ(client->stats().timeouts, 0u);
  EXPECT_EQ(later_client->stats().timeouts, 0u);
  // Every replica logged the write once.
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    const storage::SmrLog& log = system.node(0, i)->log();
    int logged = 0;
    for (BatchId b = log.FirstBatchId(); b <= log.LastBatchId(); ++b) {
      for (const Transaction& t : log.Get(b).value()->batch.local) {
        if (t.id == first->txn_id) ++logged;
      }
    }
    EXPECT_EQ(logged, 1) << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DecidedAcrossViewChangeTest,
    ::testing::Values(core::ConsensusKind::kPbft,
                      core::ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<core::ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

}  // namespace
}  // namespace transedge
