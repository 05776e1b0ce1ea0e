// Wire-format round-trip tests: for every message type that crosses the
// simulated network, serialize -> deserialize must give back an equal
// message, and serializing it again must be byte-identical, over
// randomized field values from the seeded common/rng.h generator. The
// value check catches a field the codec drops; byte identity catches
// asymmetries that survive an == comparison. A field the generators
// never set is invisible to both, so a new field must be set below.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "merkle/merkle_tree.h"
#include "wire/serialize.h"

namespace transedge::wire {
namespace {

Key RandKey(Rng& rng) {
  return "key-" + std::to_string(rng.NextBounded(10000));
}

Bytes RandBytes(Rng& rng) {
  Bytes b(rng.NextBounded(24));
  for (uint8_t& c : b) c = static_cast<uint8_t>(rng.Next());
  return b;
}

crypto::Digest RandDigest(Rng& rng) {
  return crypto::Sha256::Hash("digest-" + std::to_string(rng.Next()));
}

crypto::Signature RandSignature(Rng& rng) {
  return crypto::Signature{static_cast<crypto::NodeId>(rng.NextBounded(7)),
                           RandDigest(rng)};
}

crypto::SignatureSet RandSignatureSet(Rng& rng) {
  crypto::SignatureSet set;
  size_t n = rng.NextBounded(4);
  for (size_t i = 0; i < n; ++i) set.Add(RandSignature(rng));
  return set;
}

txn::CdVector RandCdVector(Rng& rng) {
  size_t parts = 1 + rng.NextBounded(5);
  txn::CdVector v(parts);
  for (PartitionId p = 0; p < static_cast<PartitionId>(parts); ++p) {
    if (rng.NextBounded(2) == 0) {
      v.Set(p, static_cast<BatchId>(rng.NextBounded(100)));
    }
  }
  return v;
}

Transaction RandTxn(Rng& rng) {
  Transaction txn;
  txn.id = MakeTxnId(static_cast<uint32_t>(rng.NextBounded(1000)),
                     static_cast<uint32_t>(rng.NextBounded(1000)));
  size_t reads = rng.NextBounded(4);
  for (size_t i = 0; i < reads; ++i) {
    txn.read_set.push_back(
        ReadOp{RandKey(rng), rng.NextInRange(-1, 100)});
  }
  size_t writes = rng.NextBounded(4);
  for (size_t i = 0; i < writes; ++i) {
    txn.write_set.push_back(WriteOp{RandKey(rng), RandBytes(rng)});
  }
  size_t parts = 1 + rng.NextBounded(3);
  for (PartitionId p = 0; p < static_cast<PartitionId>(parts); ++p) {
    txn.participants.push_back(p);
  }
  txn.coordinator = txn.participants[rng.NextBounded(parts)];
  return txn;
}

storage::PreparedInfo RandPreparedInfo(Rng& rng) {
  storage::PreparedInfo info;
  info.partition = static_cast<PartitionId>(rng.NextBounded(4));
  info.prepared_in_batch = static_cast<BatchId>(rng.NextBounded(50));
  info.vote = rng.NextBounded(2) == 0;
  info.cd_vector = RandCdVector(rng);
  return info;
}

storage::Batch RandBatch(Rng& rng) {
  storage::Batch batch;
  batch.partition = static_cast<PartitionId>(rng.NextBounded(4));
  batch.id = static_cast<BatchId>(rng.NextBounded(50));
  size_t local = rng.NextBounded(3);
  for (size_t i = 0; i < local; ++i) batch.local.push_back(RandTxn(rng));
  size_t prepared = rng.NextBounded(2);
  for (size_t i = 0; i < prepared; ++i) {
    batch.prepared.push_back(RandTxn(rng));
  }
  size_t committed = rng.NextBounded(2);
  for (size_t i = 0; i < committed; ++i) {
    storage::CommitRecord record;
    record.txn_id = MakeTxnId(static_cast<uint32_t>(rng.NextBounded(100)),
                              static_cast<uint32_t>(rng.NextBounded(100)));
    record.committed = rng.NextBounded(2) == 0;
    record.prepared_in_batch = static_cast<BatchId>(rng.NextBounded(50));
    size_t infos = rng.NextBounded(3);
    for (size_t j = 0; j < infos; ++j) {
      record.participant_info.push_back(RandPreparedInfo(rng));
    }
    batch.committed.push_back(std::move(record));
  }
  batch.ro.cd_vector = RandCdVector(rng);
  batch.ro.lce = static_cast<BatchId>(rng.NextBounded(50));
  batch.ro.merkle_root = RandDigest(rng);
  batch.ro.timestamp_us = rng.NextInRange(0, 1'000'000'000);
  return batch;
}

storage::BatchCertificate RandCert(Rng& rng) {
  storage::BatchCertificate cert;
  cert.partition = static_cast<PartitionId>(rng.NextBounded(4));
  cert.batch_id = static_cast<BatchId>(rng.NextBounded(50));
  cert.batch_digest = RandDigest(rng);
  cert.merkle_root = RandDigest(rng);
  cert.ro_digest = RandDigest(rng);
  cert.signatures = RandSignatureSet(rng);
  return cert;
}

Justification RandJustification(Rng& rng) {
  Justification justify;
  justify.view = rng.NextBounded(10);
  justify.cert = RandCert(rng);
  justify.view_sigs = RandSignatureSet(rng);
  return justify;
}

/// A structurally real Merkle proof (random raw proofs would need to
/// know BucketEntry internals; proving against a real tree does not).
AuthenticatedRead RandAuthenticatedRead(Rng& rng) {
  merkle::MerkleTree tree(6);
  Key key = RandKey(rng);
  Bytes value = RandBytes(rng);
  BatchId version = static_cast<BatchId>(rng.NextBounded(50));
  tree.Put(key, value, version);
  for (size_t i = rng.NextBounded(3); i > 0; --i) {
    tree.Put(RandKey(rng), RandBytes(rng), version);
  }
  AuthenticatedRead read;
  read.key = key;
  read.found = true;
  read.value = value;
  read.version = version;
  read.proof = tree.Prove(key).value();
  return read;
}

/// serialize -> deserialize -> serialize again; the decoded message must
/// equal the original and the two encodings must match byte for byte.
template <typename T>
void CheckRoundTrip(const T& msg) {
  Bytes first = EncodeMessage(msg);
  Result<sim::MessagePtr> decoded = DecodeMessage(first);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ((*decoded)->type(), msg.type());
  EXPECT_TRUE(static_cast<const T&>(**decoded) == msg)
      << "decoded " << MessageTypeName(T::kMessageType)
      << " differs from the original";
  Bytes second = EncodeMessage(**decoded);
  EXPECT_EQ(first, second) << "re-serialization of " << MessageTypeName(T::kMessageType)
                           << " is not byte-identical";
}

const auto kRoundTrip = [](const auto& msg) { CheckRoundTrip(msg); };

template <typename Sink>
void MakeClientMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed);
  for (int i = 0; i < 20; ++i) {
    ClientReadRequest read;
    read.request_id = rng.Next();
    read.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    read.key = RandKey(rng);
    sink(read);

    ClientReadReply reply;
    reply.request_id = rng.Next();
    reply.key = RandKey(rng);
    reply.found = rng.NextBounded(2) == 0;
    reply.value = RandBytes(rng);
    reply.version = static_cast<BatchId>(rng.NextBounded(100));
    sink(reply);

    CommitRequest commit;
    commit.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    commit.txn = RandTxn(rng);
    sink(commit);

    CommitReply commit_reply;
    commit_reply.txn_id = MakeTxnId(static_cast<uint32_t>(rng.Next()),
                                    static_cast<uint32_t>(rng.Next()));
    commit_reply.committed = rng.NextBounded(2) == 0;
    commit_reply.reason = "r" + std::to_string(rng.NextBounded(100));
    commit_reply.retryable = rng.NextBounded(2) == 0;
    sink(commit_reply);
  }
}

template <typename Sink>
void MakeReadOnlyMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed * 7 + 1);
  for (int i = 0; i < 10; ++i) {
    RoRequest req;
    req.request_id = rng.Next();
    req.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      req.keys.push_back(RandKey(rng));
    }
    sink(req);

    RoReply reply;
    reply.request_id = rng.Next();
    reply.partition = static_cast<PartitionId>(rng.NextBounded(4));
    reply.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      reply.entries.push_back(RandAuthenticatedRead(rng));
    }
    reply.certificate = RandCert(rng);
    reply.cd_vector = RandCdVector(rng);
    reply.lce = static_cast<BatchId>(rng.NextBounded(50));
    reply.timestamp_us = rng.NextInRange(0, 1'000'000'000);
    reply.second_round = rng.NextBounded(2) == 0;
    sink(reply);

    RoBatchRequest batch_req;
    batch_req.request_id = rng.Next();
    batch_req.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      batch_req.keys.push_back(RandKey(rng));
    }
    batch_req.min_lce = static_cast<BatchId>(rng.NextBounded(50));
    sink(batch_req);
  }
}

template <typename Sink>
void MakePbftMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed * 13 + 2);
  // Fields added after the first golden pin draw from their own stream,
  // so the messages that did not change keep their pinned encodings.
  Rng added(seed * 13 + 5);
  for (int i = 0; i < 10; ++i) {
    PrePrepareMsg pre;
    pre.view = rng.NextBounded(10);
    pre.batch = RandBatch(rng);
    pre.leader_signature = RandSignature(rng);
    pre.leader_cert_share = RandSignature(rng);
    pre.leader_view_share = RandSignature(added);
    pre.has_justify = added.NextBounded(2) == 0;
    if (pre.has_justify) pre.justify = RandJustification(added);
    sink(pre);

    PrepareMsg prepare;
    prepare.view = rng.NextBounded(10);
    prepare.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    prepare.batch_digest = RandDigest(rng);
    prepare.cert_share = RandSignature(rng);
    prepare.view_share = RandSignature(added);
    sink(prepare);

    CommitMsg commit;
    commit.view = rng.NextBounded(10);
    commit.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    commit.batch_digest = RandDigest(rng);
    sink(commit);

    // The draws of the retired view-change message (type 23), kept for
    // the same reason.
    rng.NextBounded(10);
    rng.NextBounded(50);
    RandSignature(rng);
  }
}

template <typename Sink>
void MakeLinearVoteMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed * 17 + 3);
  for (int i = 0; i < 10; ++i) {
    LinearProposeMsg propose;
    propose.view = rng.NextBounded(10);
    propose.batch = RandBatch(rng);
    propose.leader_signature = RandSignature(rng);
    propose.has_justify = rng.NextBounded(2) == 0;
    if (propose.has_justify) propose.justify = RandJustification(rng);
    sink(propose);

    LinearVoteMsg vote;
    vote.view = rng.NextBounded(10);
    vote.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    vote.phase = rng.NextBounded(2) == 0 ? kLinearPhasePrepare
                                         : kLinearPhaseCommit;
    vote.batch_digest = RandDigest(rng);
    vote.share = RandSignature(rng);
    vote.view_share = RandSignature(rng);
    sink(vote);

    LinearQcMsg qc;
    qc.view = rng.NextBounded(10);
    qc.phase = rng.NextBounded(2) == 0 ? kLinearPhasePrepare
                                       : kLinearPhaseCommit;
    qc.cert = RandCert(rng);
    qc.commit_sigs = RandSignatureSet(rng);
    qc.view_sigs = RandSignatureSet(rng);
    sink(qc);

    LinearViewChangeMsg vc;
    vc.new_view = rng.NextBounded(10);
    vc.last_committed = static_cast<BatchId>(rng.NextBounded(50));
    vc.signature = RandSignature(rng);
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      LinearLockReport lock;
      lock.view = rng.NextBounded(10);
      lock.batch = RandBatch(rng);
      lock.cert = RandCert(rng);
      lock.view_sigs = RandSignatureSet(rng);
      vc.locks.push_back(std::move(lock));
    }
    sink(vc);

    LinearNewViewMsg nv;
    nv.new_view = rng.NextBounded(10);
    nv.proof = RandSignatureSet(rng);
    sink(nv);

    LinearCatchUpMsg cu;
    cu.batch = RandBatch(rng);
    cu.cert = RandCert(rng);
    cu.view = rng.NextBounded(10);
    cu.view_proof = RandSignatureSet(rng);
    cu.first_retained = static_cast<BatchId>(rng.NextBounded(512));
    sink(cu);
  }
}

template <typename Sink>
void MakeTwoPcMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed * 19 + 4);
  for (int i = 0; i < 10; ++i) {
    CoordPrepareMsg coord;
    coord.txn = RandTxn(rng);
    coord.coordinator = static_cast<PartitionId>(rng.NextBounded(4));
    coord.proof = RandCert(rng);
    coord.resend = rng.NextBounded(2) == 1;
    sink(coord);

    PreparedMsg prepared;
    prepared.txn_id = MakeTxnId(static_cast<uint32_t>(rng.Next()),
                                static_cast<uint32_t>(rng.Next()));
    prepared.info = RandPreparedInfo(rng);
    prepared.proof = RandCert(rng);
    sink(prepared);

    CommitRecordMsg record;
    record.txn_id = MakeTxnId(static_cast<uint32_t>(rng.Next()),
                              static_cast<uint32_t>(rng.Next()));
    record.commit = rng.NextBounded(2) == 0;
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      record.participant_info.push_back(RandPreparedInfo(rng));
    }
    record.proof = RandCert(rng);
    sink(record);
  }
}

template <typename Sink>
void MakeAugustusMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed * 23 + 5);
  for (int i = 0; i < 10; ++i) {
    AugustusRoRequest req;
    req.request_id = rng.Next();
    req.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      req.keys.push_back(RandKey(rng));
    }
    sink(req);

    AugustusVoteRequest vote_req;
    vote_req.request_id = rng.Next();
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      vote_req.keys.push_back(RandKey(rng));
    }
    vote_req.snapshot_batch = static_cast<BatchId>(rng.NextBounded(50));
    sink(vote_req);

    AugustusVoteReply vote;
    vote.request_id = rng.Next();
    vote.vote = rng.NextBounded(2) == 0;
    vote.signature = RandSignature(rng);
    sink(vote);

    AugustusRoReply reply;
    reply.request_id = rng.Next();
    reply.partition = static_cast<PartitionId>(rng.NextBounded(4));
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      reply.entries.push_back(RandAuthenticatedRead(rng));
    }
    reply.votes = static_cast<uint32_t>(rng.NextBounded(7));
    sink(reply);

    AugustusRelease release;
    release.request_id = rng.Next();
    sink(release);
  }
}

template <typename Sink>
void MakeWatchMessages(uint64_t seed, Sink&& sink) {
  Rng rng(seed * 29 + 6);
  for (int i = 0; i < 10; ++i) {
    WatchSubscribeRequest sub;
    sub.watch_id = rng.Next();
    sub.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    sub.range_lo = RandKey(rng);
    sub.range_hi = RandKey(rng);
    sub.resume_from =
        rng.NextBounded(2) == 0 ? kNoBatch
                                : static_cast<BatchId>(rng.NextBounded(50));
    sink(sub);

    // The retired WatchSubscribeReply keeps its draws: watch id,
    // partition, epoch, batch id, resumed flag, entries and certificate.
    rng.Next();
    rng.NextBounded(4);
    rng.NextBounded(10);
    rng.NextBounded(50);
    rng.NextBounded(2);
    for (size_t k = rng.NextBounded(3); k > 0; --k) RandAuthenticatedRead(rng);
    RandCert(rng);

    WatchDeltaMsg delta;
    delta.watch_id = rng.Next();
    delta.partition = static_cast<PartitionId>(rng.NextBounded(4));
    rng.NextBounded(10);  // The retired watch epoch keeps its draw.
    delta.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    delta.prev_batch_id = delta.batch_id - 1;
    auto body = std::make_shared<WatchDeltaBody>();
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      body->entries.push_back(RandAuthenticatedRead(rng));
    }
    body->certificate = RandCert(rng);
    delta.body = std::move(body);
    sink(delta);

    WatchUnsubscribe unsub;
    unsub.watch_id = rng.Next();
    unsub.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    sink(unsub);

    WatchResubscribeRequired resub;
    resub.watch_id = rng.Next();
    resub.partition = static_cast<PartitionId>(rng.NextBounded(4));
    rng.NextBounded(10);  // The retired watch epoch keeps its draw.
    // So does the retired horizon.
    if (rng.NextBounded(2) != 0) rng.NextBounded(50);
    sink(resub);
  }
}

class WireRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireRoundTripTest, ClientMessages) {
  MakeClientMessages(GetParam(), kRoundTrip);
}

TEST_P(WireRoundTripTest, ReadOnlyProtocolMessages) {
  MakeReadOnlyMessages(GetParam(), kRoundTrip);
}

TEST_P(WireRoundTripTest, PbftConsensusMessages) {
  MakePbftMessages(GetParam(), kRoundTrip);
}

TEST_P(WireRoundTripTest, LinearVoteConsensusMessages) {
  MakeLinearVoteMessages(GetParam(), kRoundTrip);
}

TEST_P(WireRoundTripTest, TwoPcMessages) {
  MakeTwoPcMessages(GetParam(), kRoundTrip);
}

TEST_P(WireRoundTripTest, AugustusMessages) {
  MakeAugustusMessages(GetParam(), kRoundTrip);
}

TEST_P(WireRoundTripTest, WatchMessages) {
  MakeWatchMessages(GetParam(), kRoundTrip);
  // A default delta carries the shared empty body.
  CheckRoundTrip(WatchDeltaMsg{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Pins the wire format byte for byte: for every message type, the
// SHA-256 over the concatenated encodings of the seed-1 messages the
// generators above produce, in generation order. Any change to an
// encoding fails here and must be deliberate.
TEST(WireGoldenTest, EncodingsMatchPinnedHashes) {
  std::map<std::string, crypto::Sha256> hashers;
  auto absorb = [&](const auto& msg) {
    hashers[MessageTypeName(msg.kMessageType)].Update(EncodeMessage(msg));
  };
  MakeClientMessages(1, absorb);
  MakeReadOnlyMessages(1, absorb);
  MakePbftMessages(1, absorb);
  MakeLinearVoteMessages(1, absorb);
  MakeTwoPcMessages(1, absorb);
  MakeAugustusMessages(1, absorb);
  MakeWatchMessages(1, absorb);
  std::map<std::string, std::string> actual;
  for (auto& [name, hasher] : hashers) actual[name] = hasher.Finish().ToHex();

  const std::map<std::string, std::string> kGolden = {
      {"AugustusRelease", "c9b2c379d4e372e301ccf061a80206ca2a7999d20e41ee6015c73ecad8872f8f"},
      {"AugustusRoReply", "498b034f321d02ec23dcf11ed49f130503d34535c654f2ffc97a15b692867290"},
      {"AugustusRoRequest", "b724f37c1a4a03f5c04403dff81e8fda925e748174849fa06a01a4143af0f56f"},
      {"AugustusVoteReply", "6d366c091a2e5d958a2e6e898780092a043d3fabe45fbd0ee0acf021a87f44cc"},
      {"AugustusVoteRequest", "3be82fb1f35a164d3000626d75a63c9c9e3fae2527324394bdbdbdb997f816ec"},
      {"ClientRead", "4b281413135d1fccc55b665f759139113db93a1426ccf4fc54b0b9852ed0c62a"},
      {"ClientReadReply", "44941bc5370311f22fbef060abca0618a4052cd9020943d20b876b7fbed1ee16"},
      {"Commit", "fa32861b35412e862d4616bbf5f2b5bbdc413d2009a053b1bb0e8812a326dbfd"},
      {"CommitRecord", "c1269752636d0e8dc744d04114e946535c1dddbb0637e74027dc9e7aa4715e1a"},
      {"CommitReply", "09a8df196acb8a1ebdb815206c1b97eb0b04a44fa50c7f2d1e039d313d01d76e"},
      {"CommitRequest", "8791cdfc0e545712037981171771455d8b6270ad2e5f955da4e3cb232b77bfcf"},
      {"CoordPrepare", "3d8e324f8dc5692257f15569d7c4b6518ff170779f1d3aaa4e6b37d9e4e62062"},
      {"LinearCatchUp", "c24f0e1926e15f4ead0f4bdada83e6c9c4845ead7e1f047f1efd30d4b8a9ee68"},
      {"LinearNewView", "a6f393735a7cf0a37e556e162cea5cccfceea14e3588fe1d75db8988282bf547"},
      {"LinearPropose", "45d0d4f4427155e9acb5722ed491133c8c7e0cd50e8ce9f0bcfaf88bef212c8e"},
      {"LinearQc", "68e91e6121d4dc5417d4a5d0063d9b4c410b01a9e17cd867491f0b1b82dd1472"},
      {"LinearViewChange", "7e5cda45d717f8321b286573ab18cecf3a178e5538be2848190c949061fd4474"},
      {"LinearVote", "1b7292b5d5a66b7b7c4e6bc0381f2e4e70a4af7270926bfce18cc6dc8a948be4"},
      {"PrePrepare", "1c961911c6c38142fd83f9736b21bcc0a6a8a16b184fc1917b2f60fc7d31ab30"},
      {"Prepare", "5b4c44e03cf7c46620dd4bfcf0822dfe0eb0054cc7a531f37d15661deabecd55"},
      {"Prepared", "7ff4fd318a54b83bdfd4ac82edeadd56f2381c2501139c84175dbb4b7661442c"},
      {"RoBatchRequest", "72a441fd5e84419fae61a347c211ec3b2c7d7ef666e552e836cbf0db593869e9"},
      {"RoReply", "2abdf9ea8844c39d63185d293583bae390265ae5c42404dbc1dce9d6f8bfff63"},
      {"RoRequest", "9991e20d769212c03f1def22c00c3ef0c69844da96f350f53a8145ca87eef395"},
      {"WatchDelta", "045783f3d490dc6d9543c841ebdb1b5ea2fae2c661eb3550965ece27b7ec1744"},
      {"WatchResubscribeRequired", "4bf61ac43c3b01101530dda52c4d25a151d9a7d6f6e388bc332bdf44e285f5e9"},
      {"WatchSubscribe", "e8a06259906dffd1498e0061042fce36fe068f784b0426fc87f51b937f912cce"},
      {"WatchUnsubscribe", "b022ffd099767ffa3693e01ced9cdfd1c59393654c8d79639b6182e6292ed9b1"},
  };
  EXPECT_EQ(actual, kGolden);
}

}  // namespace
}  // namespace transedge::wire
