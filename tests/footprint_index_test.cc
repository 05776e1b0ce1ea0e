#include "txn/footprint_index.h"

#include <gtest/gtest.h>

#include "txn/types.h"

namespace transedge {
namespace {

Transaction MakeTxn(TxnId id, std::vector<Key> reads, std::vector<Key> writes) {
  Transaction txn;
  txn.id = id;
  for (Key& k : reads) {
    ReadOp op;
    op.key = std::move(k);
    txn.read_set.push_back(std::move(op));
  }
  for (Key& k : writes) {
    WriteOp op;
    op.key = std::move(k);
    op.value = {0x01};
    txn.write_set.push_back(std::move(op));
  }
  return txn;
}

TEST(FootprintIndexTest, EmptyIndexHasNoConflicts) {
  txn::FootprintIndex index;
  EXPECT_FALSE(index.ConflictsWith(MakeTxn(1, {"a"}, {"b"})));
  EXPECT_EQ(index.indexed_reads(), 0u);
  EXPECT_EQ(index.indexed_writes(), 0u);
}

TEST(FootprintIndexTest, DetectsWriteWriteConflict) {
  txn::FootprintIndex index;
  index.Add(MakeTxn(1, {}, {"k"}));
  EXPECT_TRUE(index.ConflictsWith(MakeTxn(2, {}, {"k"})));
  EXPECT_FALSE(index.ConflictsWith(MakeTxn(3, {}, {"other"})));
}

TEST(FootprintIndexTest, DetectsReadWriteConflictBothDirections) {
  txn::FootprintIndex index;
  index.Add(MakeTxn(1, {"r"}, {"w"}));
  // New writer against an indexed reader (wr).
  EXPECT_TRUE(index.ConflictsWith(MakeTxn(2, {}, {"r"})));
  // New reader against an indexed writer (rw).
  EXPECT_TRUE(index.ConflictsWith(MakeTxn(3, {"w"}, {})));
  // Read-read never conflicts.
  EXPECT_FALSE(index.ConflictsWith(MakeTxn(4, {"r"}, {})));
}

TEST(FootprintIndexTest, RemoveReleasesFootprint) {
  txn::FootprintIndex index;
  Transaction txn = MakeTxn(1, {"r"}, {"w"});
  index.Add(txn);
  EXPECT_EQ(index.indexed_reads(), 1u);
  EXPECT_EQ(index.indexed_writes(), 1u);
  index.Remove(txn);
  EXPECT_EQ(index.indexed_reads(), 0u);
  EXPECT_EQ(index.indexed_writes(), 0u);
  EXPECT_FALSE(index.ConflictsWith(MakeTxn(2, {"w"}, {"r"})));
}

TEST(FootprintIndexTest, RefcountsOverlappingFootprints) {
  txn::FootprintIndex index;
  Transaction a = MakeTxn(1, {}, {"k"});
  Transaction b = MakeTxn(2, {}, {"k"});
  index.Add(a);
  index.Add(b);
  index.Remove(a);
  // b still holds the key.
  EXPECT_TRUE(index.ConflictsWith(MakeTxn(3, {"k"}, {})));
  index.Remove(b);
  EXPECT_FALSE(index.ConflictsWith(MakeTxn(3, {"k"}, {})));
}

TEST(FootprintIndexTest, RemoveOfUnknownTxnIsHarmless) {
  txn::FootprintIndex index;
  index.Add(MakeTxn(1, {}, {"k"}));
  index.Remove(MakeTxn(2, {"x"}, {"y"}));  // Never added.
  EXPECT_TRUE(index.ConflictsWith(MakeTxn(3, {}, {"k"})));
}

}  // namespace
}  // namespace transedge
