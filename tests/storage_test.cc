#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "storage/batch.h"
#include "storage/partition_map.h"
#include "storage/smr_log.h"
#include "storage/versioned_store.h"

namespace transedge::storage {
namespace {

// --- VersionedStore ----------------------------------------------------------

TEST(VersionedStoreTest, GetLatest) {
  VersionedStore store;
  store.Put("k", ToBytes("v0"), 0);
  store.Put("k", ToBytes("v3"), 3);
  VersionedValue v = store.Get("k").value();
  EXPECT_EQ(ToString(v.value), "v3");
  EXPECT_EQ(v.version, 3);
}

TEST(VersionedStoreTest, MissingKeyIsNotFound) {
  VersionedStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
  EXPECT_EQ(store.LatestVersion("nope"), kNoBatch);
}

TEST(VersionedStoreTest, GetAsOfPicksRightVersion) {
  VersionedStore store;
  store.Put("k", ToBytes("v0"), 0);
  store.Put("k", ToBytes("v5"), 5);
  store.Put("k", ToBytes("v9"), 9);

  EXPECT_EQ(ToString(store.GetAsOf("k", 0)->value), "v0");
  EXPECT_EQ(ToString(store.GetAsOf("k", 4)->value), "v0");
  EXPECT_EQ(ToString(store.GetAsOf("k", 5)->value), "v5");
  EXPECT_EQ(ToString(store.GetAsOf("k", 8)->value), "v5");
  EXPECT_EQ(ToString(store.GetAsOf("k", 100)->value), "v9");
}

TEST(VersionedStoreTest, GetAsOfBeforeFirstVersionIsNotFound) {
  VersionedStore store;
  store.Put("k", ToBytes("v5"), 5);
  EXPECT_TRUE(store.GetAsOf("k", 4).status().IsNotFound());
}

TEST(VersionedStoreTest, SameVersionOverwrites) {
  VersionedStore store;
  store.Put("k", ToBytes("a"), 2);
  store.Put("k", ToBytes("b"), 2);
  EXPECT_EQ(ToString(store.Get("k")->value), "b");
  EXPECT_EQ(store.total_versions(), 1u);
}

TEST(VersionedStoreTest, TruncateHistoryKeepsServingLatest) {
  VersionedStore store;
  for (BatchId v = 0; v < 10; ++v) {
    store.Put("k", ToBytes("v" + std::to_string(v)), v);
  }
  EXPECT_EQ(store.total_versions(), 10u);
  size_t dropped = store.TruncateHistory(7);
  EXPECT_EQ(dropped, 7u);  // Versions 0..6 dropped; 7, 8, 9 kept.
  EXPECT_EQ(ToString(store.GetAsOf("k", 7)->value), "v7");
  EXPECT_EQ(ToString(store.Get("k")->value), "v9");
  EXPECT_TRUE(store.GetAsOf("k", 5).status().IsNotFound());
}

// A chain keeps its latest version inline and older ones apart; these
// cases cross that split.
TEST(VersionedStoreTest, TruncateWithLatestAtOrBelowHorizonKeepsOnlyLatest) {
  for (BatchId horizon : {BatchId{5}, BatchId{9}}) {
    VersionedStore store;
    store.Put("k", ToBytes("v1"), 1);
    store.Put("k", ToBytes("v3"), 3);
    store.Put("k", ToBytes("v5"), 5);
    store.Put("one", ToBytes("x"), 2);  // A single version: nothing to drop.
    EXPECT_EQ(store.TruncateHistory(horizon), 2u) << "horizon " << horizon;
    EXPECT_EQ(store.total_versions(), 2u);
    EXPECT_EQ(*store.Get("k"), (VersionedValue{ToBytes("v5"), 5}));
    EXPECT_EQ(*store.GetAsOf("k", horizon), (VersionedValue{ToBytes("v5"), 5}));
    EXPECT_TRUE(store.GetAsOf("k", 4).status().IsNotFound());
    EXPECT_EQ(*store.Get("one"), (VersionedValue{ToBytes("x"), 2}));
    // History grows again from the one version left.
    store.Put("k", ToBytes("v11"), 11);
    EXPECT_EQ(ToString(store.GetAsOf("k", 10)->value), "v5");
    EXPECT_EQ(store.LatestVersion("k"), 11);
    EXPECT_EQ(store.total_versions(), 3u);
    EXPECT_EQ(store.TruncateHistory(horizon), 0u);
  }
}

TEST(VersionedStoreTest, SameBatchOverwriteAfterOlderVersions) {
  VersionedStore store;
  store.Put("k", ToBytes("a"), 1);
  store.Put("k", ToBytes("b"), 4);
  store.Put("k", ToBytes("c"), 4);
  EXPECT_EQ(*store.Get("k"), (VersionedValue{ToBytes("c"), 4}));
  EXPECT_EQ(*store.GetAsOf("k", 3), (VersionedValue{ToBytes("a"), 1}));
  EXPECT_EQ(*store.GetAsOf("k", 4), (VersionedValue{ToBytes("c"), 4}));
  EXPECT_EQ(store.total_versions(), 2u);
  EXPECT_EQ(store.TruncateHistory(4), 1u);
  EXPECT_EQ(store.total_versions(), 1u);
}

TEST(VersionedStoreTest, GetAsOfBelowOldestRetainedVersionIsNotFound) {
  VersionedStore store;
  store.Put("k", ToBytes("v2"), 2);
  store.Put("k", ToBytes("v5"), 5);
  store.Put("k", ToBytes("v8"), 8);
  EXPECT_EQ(store.TruncateHistory(6), 1u);  // Version 2 goes; 5 and 8 stay.
  EXPECT_TRUE(store.GetAsOf("k", 1).status().IsNotFound());
  EXPECT_TRUE(store.GetAsOf("k", 4).status().IsNotFound());
  EXPECT_EQ(ToString(store.GetAsOf("k", 5)->value), "v5");
  EXPECT_EQ(ToString(store.GetAsOf("k", 7)->value), "v5");
  EXPECT_EQ(ToString(store.GetAsOf("k", 8)->value), "v8");
  EXPECT_EQ(store.total_versions(), 2u);
}

/// The store's semantics over an ordered map, written the plainest way.
struct ModelStore {
  std::map<Key, std::vector<VersionedValue>> chains;
  size_t total_versions = 0;

  void Put(const Key& key, const Value& value, BatchId version) {
    std::vector<VersionedValue>& chain = chains[key];
    if (!chain.empty() && chain.back().version == version) {
      chain.back().value = value;
      return;
    }
    chain.push_back({value, version});
    ++total_versions;
  }

  /// The key's version as of `as_of`; null when it has none.
  const VersionedValue* AsOf(const Key& key, BatchId as_of) const {
    auto it = chains.find(key);
    if (it == chains.end()) return nullptr;
    const VersionedValue* found = nullptr;
    for (const VersionedValue& vv : it->second) {
      if (vv.version <= as_of) found = &vv;
    }
    return found;
  }

  size_t Truncate(BatchId horizon) {
    size_t dropped = 0;
    for (auto& [key, chain] : chains) {
      size_t keep_from = 0;
      for (size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].version <= horizon) keep_from = i;
      }
      chain.erase(chain.begin(), chain.begin() + keep_from);
      dropped += keep_from;
    }
    total_versions -= dropped;
    return dropped;
  }
};

using Visit = std::tuple<Key, Value, BatchId>;

// Seeded random operation sequences against the ordered reference: Put
// (with same-version overwrites), Get, GetAsOf, LatestVersion,
// TruncateHistory, and ForEachLatest with and without a filter, whose
// visits must be exactly the reference's filtered walk in key order.
TEST(VersionedStoreModelTest, RandomSequencesMatchAnOrderedReference) {
  const BatchId kMax = std::numeric_limits<BatchId>::max();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    VersionedStore store;
    ModelStore model;
    BatchId version = 0;
    auto random_key = [&] {
      return "k" + std::to_string(rng.NextBounded(80));
    };
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      if (rng.NextBernoulli(0.3)) version += rng.NextInRange(1, 3);
      const uint64_t op = rng.NextBounded(100);
      const Key key = random_key();
      if (op < 40) {
        const Value value = ToBytes(std::to_string(rng.Next()));
        store.Put(key, value, version);
        model.Put(key, value, version);
      } else if (op < 55) {
        const VersionedValue* want = model.AsOf(key, kMax);
        Result<VersionedValue> got = store.Get(key);
        ASSERT_EQ(got.ok(), want != nullptr);
        if (want != nullptr) {
          EXPECT_EQ(*got, *want);
        }
      } else if (op < 70) {
        const BatchId as_of = version - rng.NextInRange(-1, 12);
        const VersionedValue* want = model.AsOf(key, as_of);
        Result<VersionedValue> got = store.GetAsOf(key, as_of);
        ASSERT_EQ(got.ok(), want != nullptr);
        if (want != nullptr) {
          EXPECT_EQ(*got, *want);
        }
      } else if (op < 85) {
        const VersionedValue* want = model.AsOf(key, kMax);
        EXPECT_EQ(store.LatestVersion(key),
                  want != nullptr ? want->version : kNoBatch);
      } else if (op < 90) {
        const BatchId horizon = version - rng.NextInRange(0, 8);
        EXPECT_EQ(store.TruncateHistory(horizon), model.Truncate(horizon));
      } else {
        // Every key, or the keys in a random range.
        const bool all = rng.NextBernoulli(0.3);
        Key lo = random_key(), hi = random_key();
        if (hi < lo) std::swap(lo, hi);
        auto selected = [&](const Key& k) {
          return all || (lo <= k && k <= hi);
        };
        std::vector<Visit> want;
        for (const auto& [k, chain] : model.chains) {
          if (selected(k)) {
            want.emplace_back(k, chain.back().value, chain.back().version);
          }
        }
        std::vector<Visit> got;
        auto record = [&](const Key& k, const Value& v, BatchId ver) {
          got.emplace_back(k, v, ver);
        };
        if (all) {
          store.ForEachLatest(record);
        } else {
          store.ForEachLatest(record, selected);
        }
        EXPECT_EQ(got, want);
      }
      ASSERT_EQ(store.key_count(), model.chains.size());
      ASSERT_EQ(store.total_versions(), model.total_versions);
    }
  }
}

// --- PartitionMap ------------------------------------------------------------

TEST(PartitionMapTest, OwnershipIsDeterministicAndInRange) {
  PartitionMap pmap(5);
  for (int i = 0; i < 200; ++i) {
    Key key = "key" + std::to_string(i);
    PartitionId p = pmap.OwnerOf(key);
    EXPECT_LT(p, 5u);
    EXPECT_EQ(p, pmap.OwnerOf(key));
  }
}

TEST(PartitionMapTest, KeysSpreadAcrossPartitions) {
  PartitionMap pmap(5);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 2000; ++i) {
    ++counts[pmap.OwnerOf("key" + std::to_string(i))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 200);  // Roughly uniform: each gets ~400 of 2000.
    EXPECT_LT(c, 700);
  }
}

TEST(PartitionMapTest, ParticipantsSortedDistinct) {
  PartitionMap pmap(5);
  std::vector<ReadOp> reads;
  std::vector<WriteOp> writes;
  for (int i = 0; i < 40; ++i) {
    reads.push_back(ReadOp{"r" + std::to_string(i), kNoBatch});
    writes.push_back(WriteOp{"w" + std::to_string(i), {}});
  }
  std::vector<PartitionId> parts = pmap.ParticipantsOf(reads, writes);
  EXPECT_FALSE(parts.empty());
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_LT(parts[i - 1], parts[i]);
  }
}

// --- SmrLog ------------------------------------------------------------------

LogEntry MakeEntry(BatchId id) {
  LogEntry entry;
  entry.batch.id = id;
  entry.batch.partition = 0;
  return entry;
}

TEST(SmrLogTest, AppendsInOrder) {
  SmrLog log;
  EXPECT_EQ(log.LastBatchId(), kNoBatch);
  EXPECT_TRUE(log.Append(MakeEntry(0)).ok());
  EXPECT_TRUE(log.Append(MakeEntry(1)).ok());
  EXPECT_EQ(log.LastBatchId(), 1);
  EXPECT_EQ(log.Get(0).value()->batch.id, 0);
}

TEST(SmrLogTest, RejectsOutOfOrderAppend) {
  SmrLog log;
  EXPECT_TRUE(log.Append(MakeEntry(0)).ok());
  EXPECT_EQ(log.Append(MakeEntry(2)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.Append(MakeEntry(0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SmrLogTest, GetOutOfRangeIsNotFound) {
  SmrLog log;
  EXPECT_TRUE(log.Get(0).status().IsNotFound());
  EXPECT_TRUE(log.Append(MakeEntry(0)).ok());
  EXPECT_TRUE(log.Get(1).status().IsNotFound());
  EXPECT_TRUE(log.Get(-1).status().IsNotFound());
}

// --- Batch serialization -----------------------------------------------------

Batch SampleBatch() {
  Batch batch;
  batch.partition = 2;
  batch.id = 7;
  Transaction t1;
  t1.id = MakeTxnId(9, 1);
  t1.read_set = {ReadOp{"a", 3}};
  t1.write_set = {WriteOp{"b", ToBytes("vb")}};
  t1.participants = {2};
  t1.coordinator = 2;
  batch.local.push_back(t1);

  Transaction t2 = t1;
  t2.id = MakeTxnId(9, 2);
  t2.participants = {1, 2};
  t2.coordinator = 1;
  batch.prepared.push_back(t2);

  CommitRecord rec;
  rec.txn_id = MakeTxnId(9, 3);
  rec.committed = true;
  rec.prepared_in_batch = 5;
  PreparedInfo info;
  info.partition = 1;
  info.prepared_in_batch = 4;
  info.vote = true;
  info.cd_vector = txn::CdVector(3);
  info.cd_vector.Set(1, 4);
  rec.participant_info.push_back(info);
  batch.committed.push_back(rec);

  batch.ro.cd_vector = txn::CdVector(3);
  batch.ro.cd_vector.Set(2, 7);
  batch.ro.cd_vector.Set(1, 4);
  batch.ro.lce = 5;
  batch.ro.merkle_root = crypto::Sha256::Hash(std::string_view("root"));
  batch.ro.timestamp_us = 123456;
  return batch;
}

TEST(BatchTest, EncodeDecodeRoundTrip) {
  Batch batch = SampleBatch();
  Encoder enc;
  Encode(batch, &enc);
  Decoder dec(enc.buffer());
  Batch decoded = Decode<Batch>(&dec).value();
  EXPECT_EQ(decoded, batch);
  EXPECT_TRUE(dec.exhausted());
}

TEST(BatchTest, DigestIsContentSensitive) {
  Batch a = SampleBatch();
  Batch b = SampleBatch();
  EXPECT_EQ(a.ComputeDigest(), b.ComputeDigest());
  b.ro.timestamp_us += 1;
  EXPECT_NE(a.ComputeDigest(), b.ComputeDigest());
}

TEST(BatchTest, TruncatedDecodeFails) {
  Batch batch = SampleBatch();
  Encoder enc;
  Encode(batch, &enc);
  Bytes truncated(enc.buffer().begin(),
                  enc.buffer().begin() +
                      static_cast<long>(enc.buffer().size() / 2));
  Decoder dec(truncated);
  EXPECT_FALSE(Decode<Batch>(&dec).ok());
}

TEST(BatchCertificateTest, SignAndVerifyQuorum) {
  crypto::HmacSignatureScheme scheme(7, 3);
  Batch batch = SampleBatch();
  BatchCertificate cert;
  cert.partition = batch.partition;
  cert.batch_id = batch.id;
  cert.batch_digest = batch.ComputeDigest();
  cert.merkle_root = batch.ro.merkle_root;
  cert.ro_digest = batch.ro.ComputeDigest();
  for (crypto::NodeId id : {0u, 1u, 2u}) {
    cert.signatures.Add(scheme.MakeSigner(id)->Sign(cert.SignedPayload()));
  }
  std::vector<crypto::NodeId> members{0, 1, 2, 3, 4, 5, 6};
  EXPECT_TRUE(cert.Verify(scheme.verifier(), 3, members).ok());
  EXPECT_FALSE(cert.Verify(scheme.verifier(), 4, members).ok());

  // Tampering with the read-only segment digest invalidates it.
  cert.ro_digest.bytes[0] ^= 1;
  EXPECT_FALSE(cert.Verify(scheme.verifier(), 3, members).ok());
}

TEST(BatchCertificateTest, EncodeDecodeRoundTrip) {
  crypto::HmacSignatureScheme scheme(7, 3);
  BatchCertificate cert;
  cert.partition = 1;
  cert.batch_id = 9;
  cert.batch_digest = crypto::Sha256::Hash(std::string_view("d"));
  cert.merkle_root = crypto::Sha256::Hash(std::string_view("r"));
  cert.ro_digest = crypto::Sha256::Hash(std::string_view("ro"));
  cert.signatures.Add(scheme.MakeSigner(0)->Sign(cert.SignedPayload()));

  Encoder enc;
  Encode(cert, &enc);
  Decoder dec(enc.buffer());
  BatchCertificate decoded = Decode<BatchCertificate>(&dec).value();
  EXPECT_EQ(decoded.partition, cert.partition);
  EXPECT_EQ(decoded.batch_id, cert.batch_id);
  EXPECT_EQ(decoded.batch_digest, cert.batch_digest);
  EXPECT_EQ(decoded.merkle_root, cert.merkle_root);
  EXPECT_EQ(decoded.ro_digest, cert.ro_digest);
  ASSERT_EQ(decoded.signatures.size(), 1u);
}

}  // namespace
}  // namespace transedge::storage
