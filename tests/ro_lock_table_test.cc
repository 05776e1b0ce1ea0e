#include "core/ro_lock_table.h"

#include <gtest/gtest.h>

#include "txn/types.h"

namespace transedge {
namespace {

Transaction WriterOf(std::vector<Key> keys) {
  Transaction txn;
  txn.id = 99;
  for (Key& k : keys) {
    WriteOp op;
    op.key = std::move(k);
    op.value = {0x02};
    txn.write_set.push_back(std::move(op));
  }
  return txn;
}

bool OwnsAll(const Key&) { return true; }

TEST(RoLockTableTest, EmptyTableBlocksNothing) {
  core::RoLockTable table;
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"a", "b"}), OwnsAll));
  EXPECT_EQ(table.locked_key_count(), 0u);
}

TEST(RoLockTableTest, LockedKeyBlocksWriter) {
  core::RoLockTable table;
  table.Lock(1, {"a", "b"});
  EXPECT_EQ(table.locked_key_count(), 2u);
  EXPECT_TRUE(table.BlocksWriter(WriterOf({"b"}), OwnsAll));
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"c"}), OwnsAll));
}

// Only keys the caller owns count: a lock on a key another partition
// owns never blocks a writer here.
TEST(RoLockTableTest, LockOnAnUnownedKeyDoesNotBlock) {
  core::RoLockTable table;
  table.Lock(1, {"a", "b"});
  const auto owns_b = [](const Key& key) { return key == "b"; };
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"a"}), owns_b));
  EXPECT_TRUE(table.BlocksWriter(WriterOf({"a", "b"}), owns_b));
}

TEST(RoLockTableTest, ReleaseUnblocksWriter) {
  core::RoLockTable table;
  table.Lock(1, {"a"});
  table.Release(1);
  EXPECT_EQ(table.locked_key_count(), 0u);
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"a"}), OwnsAll));
}

TEST(RoLockTableTest, SharedLocksRefcountAcrossRequests) {
  core::RoLockTable table;
  table.Lock(1, {"k"});
  table.Lock(2, {"k"});
  EXPECT_EQ(table.locked_key_count(), 1u);  // One key, two holders.
  table.Release(1);
  // Request 2 still holds.
  EXPECT_TRUE(table.BlocksWriter(WriterOf({"k"}), OwnsAll));
  table.Release(2);
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"k"}), OwnsAll));
}

TEST(RoLockTableTest, DuplicateReleaseIsHarmless) {
  core::RoLockTable table;
  table.Lock(1, {"k"});
  table.Release(1);
  table.Release(1);  // No-op.
  EXPECT_EQ(table.locked_key_count(), 0u);
  table.Lock(2, {"k"});
  EXPECT_TRUE(table.BlocksWriter(WriterOf({"k"}), OwnsAll));
}

TEST(RoLockTableTest, ReleaseOfUnknownRequestIsHarmless) {
  core::RoLockTable table;
  table.Lock(1, {"k"});
  table.Release(42);
  EXPECT_TRUE(table.BlocksWriter(WriterOf({"k"}), OwnsAll));
}

// Regression: a re-lock under the same request id (client retry or
// duplicate delivery) used to overwrite the request's key list while
// leaving the first call's shared counts behind, so a single Release
// could never drain them and writers stayed blocked forever.
TEST(RoLockTableTest, RelockUnderSameRequestIdRoundTrips) {
  core::RoLockTable table;
  table.Lock(1, {"a", "b"});
  table.Lock(1, {"a", "b"});  // Duplicate delivery of the same request.
  table.Release(1);
  EXPECT_EQ(table.locked_key_count(), 0u);
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"a"}), OwnsAll));
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"b"}), OwnsAll));
}

TEST(RoLockTableTest, RelockWithDifferentKeysReplacesTheOldEntry) {
  core::RoLockTable table;
  table.Lock(1, {"a"});
  table.Lock(1, {"b"});  // Retry with a different key set.
  // Old count released.
  EXPECT_FALSE(table.BlocksWriter(WriterOf({"a"}), OwnsAll));
  EXPECT_TRUE(table.BlocksWriter(WriterOf({"b"}), OwnsAll));
  table.Release(1);
  EXPECT_EQ(table.locked_key_count(), 0u);
}

}  // namespace
}  // namespace transedge
