// Wire-format tests: round trips for every message type, plus decoder
// robustness (truncation and random-bytes fuzzing must yield clean
// errors, never crashes).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "wire/serialize.h"

namespace transedge::wire {
namespace {

crypto::Digest D(const std::string& s) { return crypto::Sha256::Hash(s); }

Transaction SampleTxn() {
  Transaction txn;
  txn.id = MakeTxnId(12, 34);
  txn.read_set = {ReadOp{"a", 3}, ReadOp{"b", kNoBatch}};
  txn.write_set = {WriteOp{"c", ToBytes("vc")}};
  txn.participants = {0, 2};
  txn.coordinator = 2;
  return txn;
}

storage::BatchCertificate SampleCert() {
  crypto::HmacSignatureScheme scheme(4, 1);
  storage::BatchCertificate cert;
  cert.partition = 1;
  cert.batch_id = 7;
  cert.batch_digest = D("batch");
  cert.merkle_root = D("root");
  cert.ro_digest = D("ro");
  cert.signatures.Add(scheme.MakeSigner(0)->Sign(cert.SignedPayload()));
  cert.signatures.Add(scheme.MakeSigner(1)->Sign(cert.SignedPayload()));
  return cert;
}

template <typename T>
std::shared_ptr<const T> RoundTrip(const T& msg) {
  Bytes encoded = EncodeMessage(msg);
  Result<sim::MessagePtr> decoded = DecodeMessage(encoded);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  if (!decoded.ok()) return nullptr;
  EXPECT_EQ((*decoded)->type(), msg.type());
  return std::static_pointer_cast<const T>(*decoded);
}

TEST(WireTest, ClientReadRequestRoundTrip) {
  ClientReadRequest msg;
  msg.request_id = 0xfeedULL << 32 | 7;
  msg.reply_to = 99;
  msg.key = "some-key";
  auto decoded = RoundTrip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->request_id, msg.request_id);
  EXPECT_EQ(decoded->reply_to, msg.reply_to);
  EXPECT_EQ(decoded->key, msg.key);
}

TEST(WireTest, ClientReadReplyRoundTrip) {
  ClientReadReply msg;
  msg.request_id = 5;
  msg.key = "k";
  msg.found = true;
  msg.value = ToBytes("payload");
  msg.version = 42;
  auto decoded = RoundTrip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->value, msg.value);
  EXPECT_EQ(decoded->version, msg.version);
}

TEST(WireTest, CommitRequestRoundTrip) {
  CommitRequest msg;
  msg.reply_to = 3;
  msg.txn = SampleTxn();
  auto decoded = RoundTrip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->txn, msg.txn);
}

TEST(WireTest, CommitReplyRoundTrip) {
  CommitReply msg;
  msg.txn_id = 77;
  msg.committed = false;
  msg.reason = "conflict on key c";
  auto decoded = RoundTrip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->reason, msg.reason);
}

TEST(WireTest, RoReplyRoundTripWithProofs) {
  merkle::MerkleTree tree(6);
  tree.Put("x", ToBytes("vx"), 4);
  tree.Put("y", ToBytes("vy"), 4);

  RoReply msg;
  msg.request_id = 9;
  msg.partition = 2;
  msg.batch_id = 4;
  AuthenticatedRead read;
  read.key = "x";
  read.found = true;
  read.value = ToBytes("vx");
  read.version = 4;
  read.proof = tree.Prove("x").value();
  msg.entries.push_back(read);
  msg.certificate = SampleCert();
  msg.cd_vector = txn::CdVector(3);
  msg.cd_vector.Set(0, 11);
  msg.lce = 2;
  msg.timestamp_us = 123456789;
  msg.second_round = true;

  auto decoded = RoundTrip(msg);
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->entries.size(), 1u);
  EXPECT_EQ(decoded->entries[0].value, read.value);
  EXPECT_EQ(decoded->cd_vector, msg.cd_vector);
  EXPECT_EQ(decoded->lce, msg.lce);
  EXPECT_TRUE(decoded->second_round);
  // The decoded proof still verifies against the tree root.
  EXPECT_TRUE(merkle::MerkleTree::VerifyProof(decoded->entries[0].proof, "x",
                                              ToBytes("vx"), 4,
                                              tree.RootDigest())
                  .ok());
}

TEST(WireTest, PrePrepareRoundTrip) {
  PrePrepareMsg msg;
  msg.view = 3;
  msg.batch.partition = 1;
  msg.batch.id = 0;
  msg.batch.local.push_back(SampleTxn());
  msg.batch.ro.cd_vector = txn::CdVector(2);
  msg.leader_signature = crypto::Signature{1, D("sig")};
  msg.leader_cert_share = crypto::Signature{1, D("share")};
  auto decoded = RoundTrip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->batch, msg.batch);
  EXPECT_EQ(decoded->leader_signature, msg.leader_signature);
}

TEST(WireTest, TwoPcMessagesRoundTrip) {
  CoordPrepareMsg coord;
  coord.txn = SampleTxn();
  coord.coordinator = 2;
  coord.proof = SampleCert();
  auto coord_decoded = RoundTrip(coord);
  ASSERT_NE(coord_decoded, nullptr);
  EXPECT_EQ(coord_decoded->txn, coord.txn);

  PreparedMsg prepared;
  prepared.txn_id = 8;
  prepared.info.partition = 1;
  prepared.info.prepared_in_batch = 6;
  prepared.info.vote = true;
  prepared.info.cd_vector = txn::CdVector(3);
  prepared.proof = SampleCert();
  auto prepared_decoded = RoundTrip(prepared);
  ASSERT_NE(prepared_decoded, nullptr);
  EXPECT_EQ(prepared_decoded->info, prepared.info);

  CommitRecordMsg record;
  record.txn_id = 8;
  record.commit = true;
  record.participant_info.push_back(prepared.info);
  record.proof = SampleCert();
  auto record_decoded = RoundTrip(record);
  ASSERT_NE(record_decoded, nullptr);
  ASSERT_EQ(record_decoded->participant_info.size(), 1u);
  EXPECT_EQ(record_decoded->participant_info[0], prepared.info);
}

TEST(WireTest, ConsensusVotesRoundTrip) {
  PrepareMsg prepare;
  prepare.view = 1;
  prepare.batch_id = 5;
  prepare.batch_digest = D("d");
  prepare.cert_share = crypto::Signature{2, D("s")};
  auto p = RoundTrip(prepare);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->batch_digest, prepare.batch_digest);

  CommitMsg commit;
  commit.view = 1;
  commit.batch_id = 5;
  commit.batch_digest = D("d");
  auto c = RoundTrip(commit);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->batch_id, 5);
}

TEST(WireTest, LinearVoteMessagesRoundTrip) {
  LinearProposeMsg propose;
  propose.view = 3;
  propose.batch.partition = 1;
  propose.batch.id = 9;
  propose.batch.local = {SampleTxn()};
  propose.leader_signature = crypto::Signature{0, D("ls")};
  auto pr = RoundTrip(propose);
  ASSERT_NE(pr, nullptr);
  EXPECT_EQ(pr->view, 3u);
  EXPECT_EQ(pr->batch.id, 9);
  ASSERT_EQ(pr->batch.local.size(), 1u);
  EXPECT_EQ(pr->batch.local[0], propose.batch.local[0]);
  EXPECT_FALSE(pr->has_justify);

  // A view-change re-proposal carries the justification QC.
  propose.has_justify = true;
  propose.justify.view = 2;
  propose.justify.cert = SampleCert();
  auto rp = RoundTrip(propose);
  ASSERT_NE(rp, nullptr);
  ASSERT_TRUE(rp->has_justify);
  EXPECT_EQ(rp->justify.view, 2u);
  EXPECT_EQ(rp->justify.cert.batch_id, propose.justify.cert.batch_id);
  EXPECT_EQ(rp->justify.cert.signatures.size(),
            propose.justify.cert.signatures.size());

  LinearVoteMsg vote;
  vote.view = 3;
  vote.batch_id = 9;
  vote.phase = kLinearPhaseCommit;
  vote.batch_digest = D("d");
  vote.share = crypto::Signature{2, D("s")};
  auto v = RoundTrip(vote);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->phase, kLinearPhaseCommit);
  EXPECT_EQ(v->batch_digest, vote.batch_digest);
  EXPECT_EQ(v->share, vote.share);

  LinearQcMsg qc;
  qc.view = 3;
  qc.phase = kLinearPhaseCommit;
  qc.cert = SampleCert();
  qc.commit_sigs.Add(crypto::Signature{1, D("c1")});
  qc.commit_sigs.Add(crypto::Signature{2, D("c2")});
  auto q = RoundTrip(qc);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->cert.batch_id, qc.cert.batch_id);
  EXPECT_EQ(q->cert.signatures.size(), qc.cert.signatures.size());
  ASSERT_EQ(q->commit_sigs.size(), 2u);
  EXPECT_EQ(q->commit_sigs.signatures[1], qc.commit_sigs.signatures[1]);

  LinearViewChangeMsg vc;
  vc.new_view = 4;
  vc.last_committed = 8;
  vc.signature = crypto::Signature{3, D("v")};
  auto lvc = RoundTrip(vc);
  ASSERT_NE(lvc, nullptr);
  EXPECT_EQ(lvc->new_view, 4u);
  EXPECT_EQ(lvc->last_committed, 8);
  EXPECT_TRUE(lvc->locks.empty());

  // A locked replica reports its prepare QCs (one per in-flight slot)
  // with the view change, each carrying the QC's view-bind quorum.
  LinearLockReport report;
  report.view = 3;
  report.batch.partition = 1;
  report.batch.id = 9;
  report.batch.local = {SampleTxn()};
  report.cert = SampleCert();
  report.view_sigs.Add(crypto::Signature{1, D("vb1")});
  report.view_sigs.Add(crypto::Signature{2, D("vb2")});
  vc.locks.push_back(report);
  report.view = 4;
  report.batch.id = 10;
  vc.locks.push_back(report);
  auto locked = RoundTrip(vc);
  ASSERT_NE(locked, nullptr);
  ASSERT_EQ(locked->locks.size(), 2u);
  EXPECT_EQ(locked->locks[0].view, 3u);
  EXPECT_EQ(locked->locks[0].batch.id, 9);
  ASSERT_EQ(locked->locks[0].batch.local.size(), 1u);
  EXPECT_EQ(locked->locks[0].batch.local[0], vc.locks[0].batch.local[0]);
  EXPECT_EQ(locked->locks[0].cert.batch_id, vc.locks[0].cert.batch_id);
  ASSERT_EQ(locked->locks[0].view_sigs.size(), 2u);
  EXPECT_EQ(locked->locks[0].view_sigs.signatures[1],
            vc.locks[0].view_sigs.signatures[1]);
  EXPECT_EQ(locked->locks[1].view, 4u);
  EXPECT_EQ(locked->locks[1].batch.id, 10);

  LinearNewViewMsg nv;
  nv.new_view = 4;
  nv.proof.Add(crypto::Signature{0, D("p0")});
  nv.proof.Add(crypto::Signature{1, D("p1")});
  nv.proof.Add(crypto::Signature{2, D("p2")});
  auto n = RoundTrip(nv);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->new_view, 4u);
  EXPECT_EQ(n->proof.size(), 3u);

  LinearCatchUpMsg cu;
  cu.batch.partition = 1;
  cu.batch.id = 7;
  cu.batch.local = {SampleTxn()};
  cu.cert = SampleCert();
  cu.view = 4;
  cu.view_proof.Add(crypto::Signature{0, D("p0")});
  auto c = RoundTrip(cu);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->batch.id, 7);
  ASSERT_EQ(c->batch.local.size(), 1u);
  EXPECT_EQ(c->batch.local[0], cu.batch.local[0]);
  EXPECT_EQ(c->cert.batch_id, cu.cert.batch_id);
  EXPECT_EQ(c->view, 4u);
  EXPECT_EQ(c->view_proof.size(), 1u);
}

TEST(WireTest, AugustusMessagesRoundTrip) {
  AugustusRoRequest req;
  req.request_id = 1;
  req.reply_to = 4;
  req.keys = {"a", "b"};
  ASSERT_NE(RoundTrip(req), nullptr);

  AugustusVoteRequest vote_req;
  vote_req.request_id = 1;
  vote_req.keys = {"a"};
  vote_req.snapshot_batch = 9;
  ASSERT_NE(RoundTrip(vote_req), nullptr);

  AugustusVoteReply vote;
  vote.request_id = 1;
  vote.vote = true;
  vote.signature = crypto::Signature{0, D("v")};
  ASSERT_NE(RoundTrip(vote), nullptr);

  AugustusRoReply reply;
  reply.request_id = 1;
  reply.partition = 0;
  reply.votes = 5;
  ASSERT_NE(RoundTrip(reply), nullptr);

  AugustusRelease release;
  release.request_id = 1;
  ASSERT_NE(RoundTrip(release), nullptr);
}

TEST(WireTest, TruncatedMessagesFailCleanly) {
  CommitRequest msg;
  msg.reply_to = 3;
  msg.txn = SampleTxn();
  Bytes encoded = EncodeMessage(msg);
  for (size_t cut = 0; cut < encoded.size(); cut += 3) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<long>(cut));
    Result<sim::MessagePtr> decoded = DecodeMessage(truncated);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(WireTest, ForgedLockCountRejected) {
  LinearViewChangeMsg msg;
  msg.new_view = 4;
  msg.signature = crypto::Signature{3, D("v")};
  Bytes encoded = EncodeMessage(msg);
  // The lock count is the body's final u32; claim 2^32-1 locks.
  for (size_t i = encoded.size() - 4; i < encoded.size(); ++i) {
    encoded[i] = 0xff;
  }
  Result<sim::MessagePtr> decoded = DecodeMessage(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(WireTest, TrailingGarbageRejected) {
  CommitReply msg;
  msg.txn_id = 1;
  Bytes encoded = EncodeMessage(msg);
  encoded.push_back(0xff);
  EXPECT_FALSE(DecodeMessage(encoded).ok());
}

// Fuzz: random byte strings must never crash the decoder.
class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.NextBounded(200);
    Bytes garbage(len);
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Next());
    Result<sim::MessagePtr> decoded = DecodeMessage(garbage);
    // Either a clean error or (rarely) a valid tiny message.
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

// Mutation fuzz: corrupt single bytes of valid encodings.
TEST_P(WireFuzzTest, MutatedValidMessagesNeverCrash) {
  RoReply msg;
  msg.request_id = 9;
  msg.partition = 2;
  msg.batch_id = 4;
  msg.certificate = SampleCert();
  msg.cd_vector = txn::CdVector(3);
  Bytes encoded = EncodeMessage(msg);

  Rng rng(GetParam() * 31);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = encoded;
    size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    (void)DecodeMessage(mutated);  // Must not crash or hang.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace transedge::wire
