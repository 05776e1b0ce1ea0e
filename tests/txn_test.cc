#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/batch_apply.h"
#include "storage/batch.h"
#include "txn/prepared_batches.h"
#include "txn/types.h"

namespace transedge {
namespace {

Transaction MakeTxn(TxnId id, std::vector<std::pair<Key, BatchId>> reads,
                    std::vector<Key> writes) {
  Transaction txn;
  txn.id = id;
  for (auto& [key, version] : reads) {
    txn.read_set.push_back(ReadOp{key, version});
  }
  for (auto& key : writes) {
    txn.write_set.push_back(WriteOp{key, ToBytes("v")});
  }
  txn.participants = {0};
  return txn;
}

// --- Conflicts ----------------------------------------------------------------

TEST(ConflictsTest, WriteWrite) {
  Transaction a = MakeTxn(1, {}, {"x"});
  Transaction b = MakeTxn(2, {}, {"x"});
  EXPECT_TRUE(Conflicts(a, b));
  EXPECT_TRUE(Conflicts(b, a));
}

TEST(ConflictsTest, ReadWrite) {
  Transaction a = MakeTxn(1, {{"x", 0}}, {});
  Transaction b = MakeTxn(2, {}, {"x"});
  EXPECT_TRUE(Conflicts(a, b));
  EXPECT_TRUE(Conflicts(b, a));
}

TEST(ConflictsTest, ReadReadIsNotAConflict) {
  Transaction a = MakeTxn(1, {{"x", 0}}, {});
  Transaction b = MakeTxn(2, {{"x", 0}}, {});
  EXPECT_FALSE(Conflicts(a, b));
}

TEST(ConflictsTest, DisjointFootprints) {
  Transaction a = MakeTxn(1, {{"x", 0}}, {"y"});
  Transaction b = MakeTxn(2, {{"p", 0}}, {"q"});
  EXPECT_FALSE(Conflicts(a, b));
}

// --- Transaction serialization -------------------------------------------------

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction txn = MakeTxn(MakeTxnId(3, 77), {{"a", 5}, {"b", kNoBatch}},
                            {"c", "d"});
  txn.participants = {0, 2, 4};
  txn.coordinator = 2;
  Encoder enc;
  Encode(txn, &enc);
  Decoder dec(enc.buffer());
  Transaction decoded = Decode<Transaction>(&dec).value();
  EXPECT_EQ(decoded, txn);
}

TEST(TransactionTest, TxnIdPacksClientAndSeq) {
  TxnId id = MakeTxnId(0xdead, 0xbeef);
  EXPECT_EQ(TxnClient(id), 0xdeadu);
  EXPECT_EQ(TxnSeq(id), 0xbeefu);
}

TEST(TransactionTest, IsLocal) {
  Transaction txn = MakeTxn(1, {}, {"x"});
  txn.participants = {3};
  EXPECT_TRUE(txn.IsLocal());
  txn.participants = {1, 3};
  EXPECT_FALSE(txn.IsLocal());
}

// --- PreparedBatches (prepare groups, Definition 4.1) ---------------------------

txn::PendingTxn Pending(TxnId id, std::vector<Key> writes) {
  txn::PendingTxn pending;
  pending.txn = MakeTxn(id, {}, std::move(writes));
  return pending;
}

std::vector<BatchId> GroupIds(const txn::PreparedBatches& pb) {
  std::vector<BatchId> ids;
  for (const txn::PrepareGroup& group : pb.groups()) {
    ids.push_back(group.prepared_in_batch);
  }
  return ids;
}

/// The groups a leader would commit: the ready prefix of its commit
/// queue.
std::vector<BatchId> ReadyPrefix(const txn::PreparedBatches& pb) {
  std::vector<BatchId> ids;
  for (const txn::PrepareGroup& group : pb.groups()) {
    if (!group.Ready()) break;
    ids.push_back(group.prepared_in_batch);
  }
  return ids;
}

TEST(PreparedBatchesTest, GroupLifecycle) {
  txn::PreparedBatches pb;
  EXPECT_TRUE(ReadyPrefix(pb).empty());

  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  group.push_back(Pending(2, {"b"}));
  pb.AddGroup(3, std::move(group));
  EXPECT_EQ(GroupIds(pb), std::vector<BatchId>{3});
  EXPECT_EQ(pb.PendingTransactions().size(), 2u);
  EXPECT_TRUE(ReadyPrefix(pb).empty());

  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  EXPECT_TRUE(ReadyPrefix(pb).empty());
  EXPECT_TRUE(pb.RecordDecision(2, false, {}).ok());
  EXPECT_EQ(ReadyPrefix(pb), std::vector<BatchId>{3});

  Result<txn::PrepareGroup> popped = pb.PopGroup(3);
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped->prepared_in_batch, 3);
  EXPECT_EQ(popped->txns[0].state, txn::PendingTxn::State::kCommitted);
  EXPECT_EQ(popped->txns[1].state, txn::PendingTxn::State::kAborted);
  EXPECT_TRUE(pb.groups().empty());
}

TEST(PreparedBatchesTest, OrderingConstraintBlocksNewerGroups) {
  // Definition 4.1: a fully decided *newer* group must wait for the
  // older group to be decided first.
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> g1, g2;
  g1.push_back(Pending(1, {"a"}));
  g2.push_back(Pending(2, {"b"}));
  pb.AddGroup(3, std::move(g1));
  pb.AddGroup(4, std::move(g2));

  EXPECT_TRUE(pb.RecordDecision(2, true, {}).ok());  // Newer group ready.
  EXPECT_TRUE(ReadyPrefix(pb).empty());              // Still blocked.

  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  // Both commit, in order.
  EXPECT_EQ(ReadyPrefix(pb), (std::vector<BatchId>{3, 4}));
}

TEST(PreparedBatchesTest, DuplicateDecisionRejected) {
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  pb.AddGroup(0, std::move(group));
  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  EXPECT_EQ(pb.RecordDecision(1, true, {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(PreparedBatchesTest, UnknownTxnIsNotFound) {
  txn::PreparedBatches pb;
  EXPECT_TRUE(pb.RecordDecision(42, true, {}).IsNotFound());
  EXPECT_EQ(pb.FindTxn(42), nullptr);
  EXPECT_TRUE(pb.PopGroup(0).status().IsNotFound());
}

TEST(PreparedBatchesTest, PendingTransactionsSkipDecided) {
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  group.push_back(Pending(2, {"b"}));
  pb.AddGroup(0, std::move(group));
  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());

  std::vector<const Transaction*> pending = pb.PendingTransactions();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0]->id, 2u);
}

TEST(PreparedBatchesTest, PopGroupIgnoresDecisionAndQueuePosition) {
  // Replica-side apply: the certified committed segment *is* the
  // decision, and it names its groups by prepare-batch id.
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> g1, g2;
  g1.push_back(Pending(1, {"a"}));
  g2.push_back(Pending(2, {"b"}));
  pb.AddGroup(5, std::move(g1));
  pb.AddGroup(6, std::move(g2));
  Result<txn::PrepareGroup> popped = pb.PopGroup(6);
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped->prepared_in_batch, 6);
  EXPECT_EQ(popped->txns[0].state, txn::PendingTxn::State::kWaiting);
  EXPECT_EQ(GroupIds(pb), std::vector<BatchId>{5});
}

TEST(PreparedBatchesTest, FindTxnReturnsStoredTransaction) {
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(7, {"key7"}));
  pb.AddGroup(0, std::move(group));
  const Transaction* found = pb.FindTxn(7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->write_set[0].key, "key7");
}

// --- The committed segment (core/batch_apply.h, ForEachBatchWrite) ----------

/// A follower's view: groups registered from decided batches 3 (two
/// transactions), 5 and 7. Every transaction is coordinated by
/// partition 1.
struct SegmentFixture {
  txn::PreparedBatches pb;

  SegmentFixture() {
    std::vector<txn::PendingTxn> g3, g5, g7;
    g3.push_back(Pending(1, {"a"}));
    g3.push_back(Pending(2, {"b"}));
    g5.push_back(Pending(3, {"c"}));
    g7.push_back(Pending(4, {"d"}));
    for (auto* group : {&g3, &g5, &g7}) {
      for (txn::PendingTxn& p : *group) p.txn.coordinator = 1;
    }
    pb.AddGroup(3, std::move(g3));
    pb.AddGroup(5, std::move(g5));
    pb.AddGroup(7, std::move(g7));
  }
};

storage::CommitRecord Rec(TxnId id, BatchId group, bool committed = true,
                          PartitionId coordinator = 1) {
  storage::CommitRecord rec;
  rec.txn_id = id;
  rec.committed = committed;
  rec.prepared_in_batch = group;
  rec.coordinator = coordinator;
  return rec;
}

TEST(CommittedPrefixTest, AcceptsExactPrefixes) {
  SegmentFixture fx;
  const txn::PreparedBatches& queue = fx.pb;
  EXPECT_TRUE(core::CheckCommittedPrefix(queue, {}).ok());
  EXPECT_TRUE(core::CheckCommittedPrefix(queue, {Rec(1, 3), Rec(2, 3, false)})
                  .ok());
  EXPECT_TRUE(
      core::CheckCommittedPrefix(queue, {Rec(1, 3), Rec(2, 3), Rec(3, 5)})
          .ok());
  EXPECT_TRUE(core::CheckCommittedPrefix(
                  queue, {Rec(1, 3), Rec(2, 3), Rec(3, 5), Rec(4, 7)})
                  .ok());
}

TEST(CommittedPrefixTest, RejectsEveryOtherShape) {
  SegmentFixture fx;
  const txn::PreparedBatches& queue = fx.pb;
  const std::vector<std::pair<std::string, std::vector<storage::CommitRecord>>>
      forged = {
          {"duplicated record", {Rec(1, 3, false), Rec(1, 3), Rec(2, 3)}},
          {"duplicated last record", {Rec(1, 3), Rec(2, 3), Rec(2, 3)}},
          {"partial group", {Rec(1, 3)}},
          {"partial group before the next", {Rec(1, 3), Rec(3, 5)}},
          {"skipped group", {Rec(1, 3), Rec(2, 3), Rec(4, 7)}},
          {"group out of order", {Rec(3, 5), Rec(1, 3), Rec(2, 3)}},
          {"record names another group", {Rec(1, 3), Rec(2, 5)}},
          {"wrong coordinator", {Rec(1, 3), Rec(2, 3, true, 0)}},
          {"past the queue",
           {Rec(1, 3), Rec(2, 3), Rec(3, 5), Rec(4, 7), Rec(9, 9)}},
          {"unknown transaction", {Rec(9, 3), Rec(2, 3)}},
      };
  for (const auto& [name, committed] : forged) {
    EXPECT_TRUE(
        core::CheckCommittedPrefix(queue, committed).IsVerificationFailed())
        << name;
  }
}

txn::CdVector Cd(std::vector<BatchId> entries) {
  txn::CdVector v(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    v.Set(static_cast<PartitionId>(i), entries[i]);
  }
  return v;
}

storage::CommitRecord RecWithDeps(TxnId id, BatchId group, bool committed,
                                  txn::CdVector participant_cd) {
  storage::CommitRecord rec = Rec(id, group, committed);
  storage::PreparedInfo info;
  info.partition = 1;
  info.vote = committed;
  info.cd_vector = std::move(participant_cd);
  rec.participant_info.push_back(std::move(info));
  return rec;
}

TEST(Algorithm1Test, AbortedRecordAddsNoDependency) {
  storage::ReadOnlySegment previous;
  previous.lce = 2;
  previous.cd_vector = Cd({4, 1, kNoBatch});
  storage::ReadOnlySegment aborted = core::DeriveLceAndCdVector(
      &previous, {RecWithDeps(1, 3, false, Cd({kNoBatch, 9, 8}))},
      /*self=*/0, /*batch_id=*/6, 3);
  EXPECT_EQ(aborted.lce, 3);
  EXPECT_EQ(aborted.cd_vector, Cd({6, 1, kNoBatch}));

  storage::ReadOnlySegment committed = core::DeriveLceAndCdVector(
      &previous, {RecWithDeps(1, 3, false, Cd({kNoBatch, 9, 8})),
                  RecWithDeps(2, 5, true, Cd({kNoBatch, 7, 2}))},
      0, 6, 3);
  EXPECT_EQ(committed.lce, 5);  // The last committed group.
  EXPECT_EQ(committed.cd_vector, Cd({6, 7, 2}));
}

TEST(Algorithm1Test, EmptySegmentCarriesLceAndCdForward) {
  storage::ReadOnlySegment previous;
  previous.lce = 2;
  previous.cd_vector = Cd({4, 1});
  storage::ReadOnlySegment next =
      core::DeriveLceAndCdVector(&previous, {}, /*self=*/1, 5, 2);
  EXPECT_EQ(next.lce, 2);
  EXPECT_EQ(next.cd_vector, Cd({4, 5}));

  storage::ReadOnlySegment genesis =
      core::DeriveLceAndCdVector(nullptr, {}, 1, 0, 2);
  EXPECT_EQ(genesis.lce, kNoBatch);
  EXPECT_EQ(genesis.cd_vector, Cd({kNoBatch, 0}));
}

TEST(ForEachBatchWriteTest, ResolvesEachRecordInTheGroupItNames) {
  SegmentFixture fx;
  storage::PartitionMap pmap(1);  // Every key is partition 0's.
  auto in_groups = [&](BatchId group, TxnId id) -> const Transaction* {
    for (const txn::PrepareGroup& g : fx.pb.groups()) {
      if (g.prepared_in_batch == group) return g.Find(id);
    }
    return nullptr;
  };
  storage::Batch batch;
  batch.local.push_back(MakeTxn(10, {}, {"l"}));
  batch.committed = {Rec(1, 3), Rec(2, 3, false), Rec(3, 5)};
  std::vector<Key> written;
  auto collect = [&](const WriteOp& w, const crypto::Digest& key_digest) {
    EXPECT_EQ(key_digest, crypto::Sha256::Hash(w.key)) << w.key;
    written.push_back(w.key);
  };
  ASSERT_TRUE(
      storage::ForEachBatchWrite(batch, pmap, 0, in_groups, collect).ok());
  // Local first, then committing records in order; the abort writes
  // nothing.
  EXPECT_EQ(written, (std::vector<Key>{"l", "a", "c"}));

  // Transaction 3 exists, but not in the group this record names.
  batch.committed = {Rec(3, 3)};
  written.clear();
  EXPECT_EQ(
      storage::ForEachBatchWrite(batch, pmap, 0, in_groups, collect).code(),
      StatusCode::kCorruption);
}

}  // namespace
}  // namespace transedge
