#include <gtest/gtest.h>

#include "common/codec.h"
#include "txn/occ_validator.h"
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

// --- OccValidator (Definition 3.1) ---------------------------------------------

TEST(OccValidatorTest, Rule1FreshReadPasses) {
  storage::VersionedStore store;
  store.Put("x", ToBytes("v"), 4);
  txn::OccValidator validator(&store);
  Transaction txn = MakeTxn(1, {{"x", 4}}, {});
  EXPECT_TRUE(validator.CheckAgainstStore(txn).ok());
}

TEST(OccValidatorTest, Rule1StaleReadConflicts) {
  storage::VersionedStore store;
  store.Put("x", ToBytes("v"), 4);
  store.Put("x", ToBytes("v2"), 6);  // Overwritten after the read.
  txn::OccValidator validator(&store);
  Transaction txn = MakeTxn(1, {{"x", 4}}, {});
  EXPECT_TRUE(validator.CheckAgainstStore(txn).IsConflict());
}

TEST(OccValidatorTest, Rule1NeverWrittenKeyNeedsNoVersion) {
  storage::VersionedStore store;
  txn::OccValidator validator(&store);
  Transaction txn = MakeTxn(1, {{"ghost", kNoBatch}}, {});
  EXPECT_TRUE(validator.CheckAgainstStore(txn).ok());
  // But claiming a version for a missing key is a conflict.
  Transaction bad = MakeTxn(2, {{"ghost", 3}}, {});
  EXPECT_TRUE(validator.CheckAgainstStore(bad).IsConflict());
}

TEST(OccValidatorTest, Rules23RejectConflictingPeers) {
  storage::VersionedStore store;
  txn::OccValidator validator(&store);
  Transaction txn = MakeTxn(1, {{"x", kNoBatch}}, {"y"});
  Transaction writes_x = MakeTxn(2, {}, {"x"});
  Transaction reads_y = MakeTxn(3, {{"y", kNoBatch}}, {});
  Transaction unrelated = MakeTxn(4, {}, {"z"});

  std::vector<const Transaction*> in_progress{&unrelated};
  std::vector<const Transaction*> pending{&unrelated};
  EXPECT_TRUE(validator.Validate(txn, in_progress, pending).ok());

  in_progress.push_back(&writes_x);
  EXPECT_TRUE(validator.Validate(txn, in_progress, pending).IsConflict());

  in_progress.pop_back();
  pending.push_back(&reads_y);
  EXPECT_TRUE(validator.Validate(txn, in_progress, pending).IsConflict());
}

TEST(OccValidatorTest, SelfIsIgnored) {
  storage::VersionedStore store;
  txn::OccValidator validator(&store);
  Transaction txn = MakeTxn(1, {}, {"x"});
  std::vector<const Transaction*> peers{&txn};
  EXPECT_TRUE(validator.CheckAgainstTransactions(txn, peers).ok());
}

// --- PreparedBatches (prepare groups, Definition 4.1) ---------------------------

txn::PendingTxn Pending(TxnId id, std::vector<Key> writes) {
  txn::PendingTxn pending;
  pending.txn = MakeTxn(id, {}, std::move(writes));
  return pending;
}

TEST(PreparedBatchesTest, GroupLifecycle) {
  txn::PreparedBatches pb;
  EXPECT_FALSE(pb.OldestReady());

  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  group.push_back(Pending(2, {"b"}));
  pb.AddGroup(3, std::move(group));
  EXPECT_EQ(pb.group_count(), 1u);
  EXPECT_EQ(pb.pending_txn_count(), 2u);
  EXPECT_FALSE(pb.OldestReady());

  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  EXPECT_FALSE(pb.OldestReady());
  EXPECT_TRUE(pb.RecordDecision(2, false, {}).ok());
  EXPECT_TRUE(pb.OldestReady());

  txn::PrepareGroup popped = pb.PopOldestReady();
  EXPECT_EQ(popped.prepared_in_batch, 3);
  EXPECT_EQ(popped.txns[0].state, txn::PendingTxn::State::kCommitted);
  EXPECT_EQ(popped.txns[1].state, txn::PendingTxn::State::kAborted);
  EXPECT_EQ(pb.group_count(), 0u);
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
  EXPECT_FALSE(pb.OldestReady());                    // Still blocked.
  EXPECT_TRUE(pb.ReadyPrefix().empty());

  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  EXPECT_TRUE(pb.OldestReady());
  EXPECT_EQ(pb.ReadyPrefix().size(), 2u);  // Both commit, in order.
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
  EXPECT_FALSE(pb.Contains(42));
  EXPECT_EQ(pb.FindTxn(42), nullptr);
}

TEST(PreparedBatchesTest, PendingIterationSkipsDecided) {
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  group.push_back(Pending(2, {"b"}));
  pb.AddGroup(0, std::move(group));
  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());

  std::vector<TxnId> pending_ids;
  pb.ForEachPending(
      [&](const Transaction& t) { pending_ids.push_back(t.id); });
  ASSERT_EQ(pending_ids.size(), 1u);
  EXPECT_EQ(pending_ids[0], 2u);
  EXPECT_EQ(pb.PendingTransactions().size(), 1u);
}

TEST(PreparedBatchesTest, PopOldestIgnoresDecisionState) {
  txn::PreparedBatches pb;
  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  pb.AddGroup(5, std::move(group));
  txn::PrepareGroup popped = pb.PopOldest();  // Replica-side apply path.
  EXPECT_EQ(popped.prepared_in_batch, 5);
  EXPECT_EQ(popped.txns[0].state, txn::PendingTxn::State::kWaiting);
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

}  // namespace
}  // namespace transedge
