#include <gtest/gtest.h>

#include "common/codec.h"
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

TEST(PreparedBatchesTest, GroupLifecycle) {
  txn::PreparedBatches pb;
  EXPECT_TRUE(pb.ReadyPrefix().empty());

  std::vector<txn::PendingTxn> group;
  group.push_back(Pending(1, {"a"}));
  group.push_back(Pending(2, {"b"}));
  pb.AddGroup(3, std::move(group));
  EXPECT_EQ(pb.GroupIds(), std::vector<BatchId>{3});
  EXPECT_EQ(pb.PendingTransactions().size(), 2u);
  EXPECT_TRUE(pb.ReadyPrefix().empty());

  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  EXPECT_TRUE(pb.ReadyPrefix().empty());
  EXPECT_TRUE(pb.RecordDecision(2, false, {}).ok());
  ASSERT_EQ(pb.ReadyPrefix().size(), 1u);
  EXPECT_EQ(pb.ReadyPrefix().front()->prepared_in_batch, 3);

  Result<txn::PrepareGroup> popped = pb.PopGroup(3);
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped->prepared_in_batch, 3);
  EXPECT_EQ(popped->txns[0].state, txn::PendingTxn::State::kCommitted);
  EXPECT_EQ(popped->txns[1].state, txn::PendingTxn::State::kAborted);
  EXPECT_TRUE(pb.GroupIds().empty());
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
  EXPECT_TRUE(pb.ReadyPrefix().empty());             // Still blocked.

  EXPECT_TRUE(pb.RecordDecision(1, true, {}).ok());
  std::vector<const txn::PrepareGroup*> ready = pb.ReadyPrefix();
  ASSERT_EQ(ready.size(), 2u);  // Both commit, in order.
  EXPECT_EQ(ready[0]->prepared_in_batch, 3);
  EXPECT_EQ(ready[1]->prepared_in_batch, 4);
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
  EXPECT_EQ(pb.GroupIds(), std::vector<BatchId>{5});
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
