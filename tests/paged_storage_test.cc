// Backend-level durability tests for the paged storage engine: clean
// restart, group-commit loss windows, the crash-point sweep (every op
// count x crash mode must recover a consistent prefix), CRC-corruption
// and torn-write rejection, meta ping-pong fallback, history-horizon
// truncation, in-memory/paged engine invariance, and the slice-by-8
// CRC-32 against the bytewise loop. `Recover` loads the
// checkpoint and the log; each test checks the checkpointed store, then
// puts the writes of the entries beyond it as the node's install step
// does.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "storage/paged/format.h"
#include "storage/paged/paged_backend.h"
#include "storage/paged/sim_disk.h"
#include "storage/storage_backend.h"

namespace transedge::storage::paged {
namespace {

crypto::Digest RootFor(BatchId id) {
  return crypto::Sha256::Hash("root-" + std::to_string(id));
}

StorageTuning SmallTuning() {
  StorageTuning tuning;
  tuning.page_size = 128;  // Small pages force multi-page bucket chains.
  tuning.num_buckets = 8;
  tuning.wal_group_commit = 1;
  tuning.checkpoint_interval = 4;
  return tuning;
}

Batch MakeBatch(BatchId id, std::vector<WriteOp> writes) {
  Batch batch;
  batch.partition = 0;
  batch.id = id;
  Transaction txn;
  txn.id = MakeTxnId(7, static_cast<uint32_t>(id));
  txn.write_set = std::move(writes);
  txn.participants = {0};
  batch.local.push_back(std::move(txn));
  batch.ro.merkle_root = RootFor(id);
  batch.ro.lce = id;
  return batch;
}

BatchCertificate CertFor(const Batch& batch) {
  BatchCertificate cert;
  cert.partition = batch.partition;
  cert.batch_id = batch.id;
  cert.batch_digest = batch.ComputeDigest();
  cert.merkle_root = batch.ro.merkle_root;
  cert.ro_digest = batch.ro.ComputeDigest();
  return cert;
}

std::map<Key, Value> Contents(const VersionedStore& store) {
  std::map<Key, Value> out;
  store.ForEachLatest(
      [&](const Key& key, const Value& value, BatchId) { out[key] = value; });
  return out;
}

/// Drives a backend through the install step the node performs for each
/// decided batch, mirroring every batch into a plain map so any
/// recovered prefix can be checked against the state as of that batch.
class Driver {
 public:
  explicit Driver(const StorageTuning& tuning)
      : tuning_(tuning), backend_(tuning, &disk_) {}

  void Preload(const std::vector<std::pair<Key, Value>>& data) {
    VersionedStore store;
    for (const auto& [key, value] : data) {
      store.Put(key, value, 0);
      preload_state_[key] = value;
    }
    model_ = preload_state_;
    backend_.Preload(store, RootFor(kNoBatch));
  }

  void Decide(const Batch& batch) {
    for (const Transaction& txn : batch.local) {
      for (const WriteOp& w : txn.write_set) {
        backend_.Put(w.key, w.value, batch.id);
        model_[w.key] = w.value;
      }
    }
    ASSERT_TRUE(backend_.log().Append({batch, CertFor(batch)}).ok());
    backend_.OnDecided();
    state_at_[batch.id] = model_;
  }

  /// The reference contents as of `id` (kNoBatch = preloaded state).
  const std::map<Key, Value>& StateAt(BatchId id) const {
    if (id == kNoBatch) return preload_state_;
    auto it = state_at_.find(id);
    EXPECT_TRUE(it != state_at_.end()) << "no reference state for " << id;
    return it->second;
  }

  SimDisk& disk() { return disk_; }
  PagedBackend& backend() { return backend_; }
  const StorageTuning& tuning() const { return tuning_; }

 private:
  StorageTuning tuning_;
  SimDisk disk_;
  PagedBackend backend_;
  std::map<Key, Value> preload_state_;
  std::map<Key, Value> model_;
  std::map<BatchId, std::map<Key, Value>> state_at_;
};

/// Recovers `backend` and finishes what the node's install step does
/// after `Recover`: checks that the store holds exactly the checkpointed
/// state, then puts the local writes of every recovered entry beyond the
/// checkpoint (the test batches hold local transactions only).
Result<RecoveredState> RecoverAndReplay(PagedBackend* backend,
                                        const Driver& driver) {
  Result<RecoveredState> rec = backend->Recover({});
  if (!rec.ok()) return rec;
  EXPECT_EQ(Contents(backend->store()),
            driver.StateAt(rec->checkpoint_applied));
  const SmrLog& log = backend->log();
  for (BatchId id = rec->checkpoint_applied + 1; id <= log.LastBatchId();
       ++id) {
    const Batch& batch = log.Get(id).value()->batch;
    for (const Transaction& txn : batch.local) {
      for (const WriteOp& w : txn.write_set) {
        backend->Put(w.key, w.value, batch.id);
      }
    }
  }
  return rec;
}

std::vector<std::pair<Key, Value>> SeedData() {
  std::vector<std::pair<Key, Value>> data;
  for (int i = 0; i < 6; ++i) {
    data.emplace_back("seed" + std::to_string(i),
                      ToBytes("v0-" + std::to_string(i)));
  }
  return data;
}

void RunBatches(Driver* driver, BatchId first, BatchId last) {
  for (BatchId id = first; id <= last; ++id) {
    driver->Decide(MakeBatch(
        id, {WriteOp{"seed" + std::to_string(id % 6),
                     ToBytes("b" + std::to_string(id))},
             WriteOp{"key" + std::to_string(id), ToBytes("new")}}));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PagedBackendTest, CleanRestartRecoversStoreLogAndCheckpoint) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 9);

  // group_commit=1 syncs every WAL append and checkpoints sync their own
  // pages, so a clean power loss loses nothing.
  driver.disk().Crash(driver.disk().op_count(), SimDisk::CrashMode::kNone);

  PagedBackend recovered(driver.tuning(), &driver.disk());
  Result<RecoveredState> rec = RecoverAndReplay(&recovered, driver);
  ASSERT_TRUE(rec.ok()) << rec.status();

  // checkpoint_interval=4 over batches 0..9 checkpoints after 3 and 7.
  EXPECT_EQ(rec->checkpoint_applied, 7);
  EXPECT_TRUE(rec->checkpoint_root == RootFor(7));
  EXPECT_EQ(recovered.log().FirstBatchId(), 0);
  EXPECT_EQ(recovered.log().LastBatchId(), 9);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(9));

  // The replayed log is the one that was written, entry for entry.
  for (BatchId id = 0; id <= 9; ++id) {
    Result<const LogEntry*> entry = recovered.log().Get(id);
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE(entry.value()->batch ==
                driver.backend().log().Get(id).value()->batch);
  }

  // Recovery charged its I/O: replayed WAL records and page reads.
  EXPECT_EQ(recovered.io_stats().wal_records_replayed, 10u);
  EXPECT_GT(recovered.io_stats().pages_read, 0u);
}

TEST(PagedBackendTest, GroupCommitCrashLosesOnlyTheUnsyncedTail) {
  StorageTuning tuning = SmallTuning();
  tuning.wal_group_commit = 4;
  tuning.checkpoint_interval = 1000;  // No checkpoint beyond preload.
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 9);

  // Appends 0..9 sync after records 3 and 7; 8 and 9 are cache-only.
  driver.disk().Crash(driver.disk().op_count(), SimDisk::CrashMode::kNone);

  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = RecoverAndReplay(&recovered, driver);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->checkpoint_applied, kNoBatch);
  EXPECT_TRUE(rec->checkpoint_root == RootFor(kNoBatch));
  EXPECT_EQ(recovered.log().LastBatchId(), 7);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(7));
}

TEST(PagedBackendTest, CrashPointSweepAlwaysRecoversAConsistentPrefix) {
  StorageTuning tuning = SmallTuning();
  tuning.wal_group_commit = 2;
  tuning.checkpoint_interval = 3;
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 11);

  const uint64_t ops = driver.disk().op_count();
  ASSERT_GT(ops, 12u);  // WAL appends + checkpoint page/meta writes.
  const SimDisk::CrashMode kModes[] = {SimDisk::CrashMode::kNone,
                                       SimDisk::CrashMode::kPrefix,
                                       SimDisk::CrashMode::kTorn};
  for (uint64_t keep = 0; keep <= ops; ++keep) {
    for (SimDisk::CrashMode mode : kModes) {
      SimDisk crashed = driver.disk().Clone();
      crashed.Crash(keep, mode);
      PagedBackend recovered(tuning, &crashed);
      SCOPED_TRACE("crash at op " + std::to_string(keep) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      Result<RecoveredState> rec = RecoverAndReplay(&recovered, driver);
      ASSERT_TRUE(rec.ok())
          << "crash at op " << keep << " mode " << static_cast<int>(mode)
          << ": " << rec.status();
      BatchId w = recovered.log().LastBatchId();
      EXPECT_GE(w, rec->checkpoint_applied);
      EXPECT_LE(w, 11);
      EXPECT_EQ(Contents(recovered.store()), driver.StateAt(w))
          << "crash at op " << keep << " mode " << static_cast<int>(mode)
          << " recovered watermark " << w;
    }
  }

  // Keeping the whole cache is equivalent to a clean shutdown.
  SimDisk intact = driver.disk().Clone();
  intact.Crash(ops, SimDisk::CrashMode::kPrefix);
  PagedBackend full(tuning, &intact);
  ASSERT_TRUE(RecoverAndReplay(&full, driver).ok());
  EXPECT_EQ(full.log().LastBatchId(), 11);
}

TEST(PagedBackendTest, CorruptedWalTailRecordIsDroppedBenignly) {
  StorageTuning tuning = SmallTuning();
  tuning.checkpoint_interval = 1000;
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 4);
  driver.disk().SyncAll();

  // Flip a byte inside the last record: its CRC fails, the scan ends at
  // the record before it, and recovery serves batches 0..3.
  driver.disk().CorruptByte(kWalFileId,
                            driver.disk().DurableSize(kWalFileId) - 1);
  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = RecoverAndReplay(&recovered, driver);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(recovered.log().LastBatchId(), 3);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(3));
}

TEST(PagedBackendTest, CorruptedWalRecordInTheMiddleIsAHole) {
  StorageTuning tuning = SmallTuning();
  tuning.checkpoint_interval = 1000;
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 4);
  driver.disk().SyncAll();

  // A byte inside record 0's payload, with valid records after it: that
  // is a hole in the middle of the log, not a torn tail — recovery must
  // refuse rather than silently skip decided batches.
  driver.disk().CorruptByte(kWalFileId, kWalRecordHeaderSize + 2);
  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_FALSE(rec.ok());
}

TEST(PagedBackendTest, CorruptedDataPageFailsRecovery) {
  StorageTuning tuning = SmallTuning();
  Driver driver(tuning);
  driver.Preload(SeedData());
  driver.disk().SyncAll();

  // The preload checkpoint references data pages from kFirstDataPage up;
  // flipping a durable byte in one must fail the chain CRC.
  driver.disk().CorruptByte(
      kPagesFileId, static_cast<uint64_t>(kFirstDataPage) * tuning.page_size +
                        kPageHeaderSize + 3);
  PagedBackend recovered(tuning, &driver.disk());
  EXPECT_FALSE(recovered.Recover({}).ok());
}

TEST(PagedBackendTest, MetaPingPongFallsBackToThePreviousCheckpoint) {
  StorageTuning tuning = SmallTuning();
  tuning.checkpoint_interval = 1000;  // Only explicit checkpoints.
  Driver driver(tuning);
  driver.Preload(SeedData());  // Generation 1, slot 1.
  RunBatches(&driver, 0, 5);
  ASSERT_TRUE(driver.backend().Checkpoint().ok());  // Generation 2, slot 0.
  driver.disk().SyncAll();

  // Wreck the newest meta slot (generation 2 lives in page 0). Recovery
  // falls back to generation 1 — the preload checkpoint — and the WAL,
  // which is never physically truncated, replays everything back.
  driver.disk().CorruptByte(kPagesFileId, 8);
  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = RecoverAndReplay(&recovered, driver);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->checkpoint_applied, kNoBatch);
  EXPECT_EQ(recovered.log().LastBatchId(), 5);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(5));
}

TEST(PagedBackendTest, TruncateHistoryBoundsLogAndRecovery) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 9);
  driver.backend().TruncateHistory(6);
  ASSERT_TRUE(driver.backend().Checkpoint().ok());
  driver.disk().SyncAll();

  EXPECT_EQ(driver.backend().log().FirstBatchId(), 6);
  EXPECT_FALSE(driver.backend().log().Get(5).ok());

  // The checkpoint published log_start=6 and the matching WAL offset, so
  // a restart recovers exactly the retained suffix.
  PagedBackend recovered(driver.tuning(), &driver.disk());
  Result<RecoveredState> rec = RecoverAndReplay(&recovered, driver);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(recovered.log().FirstBatchId(), 6);
  EXPECT_EQ(recovered.log().LastBatchId(), 9);
  EXPECT_FALSE(recovered.log().Get(5).ok());
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(9));
}

TEST(PagedBackendTest, PagedAndInMemoryEnginesApplyIdentically) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());

  InMemoryBackend in_memory;
  {
    VersionedStore store;
    for (const auto& [key, value] : SeedData()) store.Put(key, value, 0);
    in_memory.Preload(store, RootFor(kNoBatch));
  }

  for (BatchId id = 0; id <= 9; ++id) {
    Batch batch = MakeBatch(
        id, {WriteOp{"seed" + std::to_string(id % 6),
                     ToBytes("b" + std::to_string(id))},
             WriteOp{"key" + std::to_string(id), ToBytes("new")}});
    driver.Decide(batch);
    for (const Transaction& txn : batch.local) {
      for (const WriteOp& w : txn.write_set) {
        in_memory.Put(w.key, w.value, batch.id);
      }
    }
    ASSERT_TRUE(in_memory.log().Append({batch, CertFor(batch)}).ok());
    in_memory.OnDecided();
  }

  EXPECT_EQ(Contents(in_memory.store()), Contents(driver.backend().store()));
  EXPECT_EQ(in_memory.log().LastBatchId(),
            driver.backend().log().LastBatchId());
  // The in-memory engine reports no I/O at all.
  EXPECT_EQ(in_memory.io_stats().wal_appends, 0u);
  EXPECT_EQ(in_memory.io_stats().wal_syncs, 0u);
  EXPECT_GT(driver.backend().io_stats().wal_appends, 0u);
}

template <typename T>
Bytes EncodeStruct(const T& value) {
  Encoder enc;
  Encode(value, &enc);
  return enc.Take();
}

/// CRC-32 the plainest way: one byte at a time, one bit at a time.
uint32_t BytewiseCrc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// The slice-by-8 CRC against the bytewise loop: every length from 0 to
// 300 at every start offset mod 8, random seeds, and seeds chained over
// a split of the input at every point.
TEST(Crc32Test, MatchesTheBytewiseLoop) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  Rng rng(11);
  Bytes buf(300 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* data = buf.data() + offset;
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t want = BytewiseCrc32(data, len, 0);
      ASSERT_EQ(Crc32(data, len), want) << "offset " << offset << " len "
                                        << len;
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32(data, len, seed), BytewiseCrc32(data, len, seed));
      for (size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32(data + split, len - split, Crc32(data, split)), want)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// Pins the on-disk format byte for byte: fixed headers and meta slot,
// plus the WAL and page files a short run leaves behind (WAL records
// carry the encoded batch + certificate log entries). Any change to the
// format fails here and must be deliberate.
TEST(PagedFormatGoldenTest, EncodingsMatchPinnedHashes) {
  PageHeader page;
  page.page_id = 5;
  page.lsn = 9;
  page.payload_len = 77;
  page.next_page = 6;
  page.crc = 0xDEADBEEF;
  Bytes page_bytes = EncodeStruct(page);
  EXPECT_EQ(page_bytes.size(), kPageHeaderSize);

  MetaSlot meta;
  meta.generation = 3;
  meta.page_size = 128;
  meta.num_buckets = 4;
  meta.num_pages = 12;
  meta.last_applied = 7;
  meta.root = RootFor(7);
  meta.log_start = 2;
  meta.wal_start_offset = 4096;
  meta.bucket_heads = {2, kNoPage, 5, 9};
  meta.crc = 0x01234567;

  WalRecordHeader wal;
  wal.type = static_cast<uint8_t>(WalRecordType::kLogEntry);
  wal.lsn = 42;
  wal.payload_len = 300;
  wal.crc = 0xCAFEBABE;
  Bytes wal_bytes = EncodeStruct(wal);
  EXPECT_EQ(wal_bytes.size(), kWalRecordHeaderSize);

  Driver driver(SmallTuning());
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 5);
  const SimDisk& disk = driver.disk();

  auto sha = [](const Bytes& b) { return crypto::Sha256::Hash(b).ToHex(); };
  EXPECT_EQ(sha(page_bytes),
            "5ec89c40e9c8ea2b3b4eca1a93c1120702b10b60dd9c11fe3ff2f4c654b767ef");
  EXPECT_EQ(sha(EncodeStruct(meta)),
            "05343fce6fd2155d730b19416a3c0528de815b5d255ee156db4983ca8c8c0158");
  EXPECT_EQ(sha(wal_bytes),
            "3eddd74cb696e27f84f2dfd7e2bd7fed29b8cdfd5db8fe25cb9508085f8953aa");
  EXPECT_EQ(sha(disk.ReadAt(kWalFileId, 0, disk.Size(kWalFileId))),
            "f9cb5dfa367417b60489122a38a19adb546325c7161c2acdd3f184c8b4a12a5c");
  EXPECT_EQ(sha(disk.ReadAt(kPagesFileId, 0, disk.Size(kPagesFileId))),
            "9479356ad8b131523d4620f89b233fc5629b1d4d9957425e7b3a50e76c881a50");
}

}  // namespace
}  // namespace transedge::storage::paged
