#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace transedge::crypto {
namespace {

// --- SHA-256 against the NIST / de-facto standard test vectors -------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Hash(std::string_view("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash(std::string_view("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Hash(std::string_view(
                             "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                             "mnopnopq"))
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes == exactly one block; padding must spill into a second.
  std::string msg(64, 'x');
  Digest once = Sha256::Hash(msg);
  Sha256 h;
  h.Update(msg.substr(0, 31));
  h.Update(msg.substr(31));
  EXPECT_EQ(h.Finish(), once);
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ResetReusesObject) {
  Sha256 h;
  h.Update(std::string_view("garbage"));
  h.Reset();
  h.Update(std::string_view("abc"));
  EXPECT_EQ(h.Finish().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DigestHelpers) {
  Digest zero;
  EXPECT_TRUE(zero.IsZero());
  Digest d = Sha256::Hash(std::string_view("abc"));
  EXPECT_FALSE(d.IsZero());
  EXPECT_EQ(d.ShortHex(), "ba7816bf");
  EXPECT_NE(d, zero);
  EXPECT_EQ(d, Sha256::Hash(std::string_view("abc")));
}

TEST(Sha256Test, HashPairIsOrderSensitive) {
  Digest a = Sha256::Hash(std::string_view("a"));
  Digest b = Sha256::Hash(std::string_view("b"));
  EXPECT_NE(HashPair(a, b), HashPair(b, a));
}

// --- HMAC-SHA256 against RFC 4231 vectors -----------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(mac.ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Digest mac = HmacSha256(key, ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(mac.ToHex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  Digest mac = HmacSha256(key, data);
  EXPECT_EQ(mac.ToHex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  Bytes key(131, 0xaa);
  Digest mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(mac.ToHex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacKeyTest, MacMatchesRfc4231Vectors) {
  struct Case {
    Bytes key;
    Bytes data;
    const char* mac;
  };
  const std::vector<Case> cases = {
      {Bytes(20, 0x0b), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Case& c : cases) {
    HmacKey key(c.key);
    EXPECT_EQ(key.Mac(c.data).ToHex(), c.mac);
    // The cached pad state is reused, never consumed.
    EXPECT_EQ(key.Mac(c.data).ToHex(), c.mac);
    EXPECT_EQ(HmacSha256(c.key, c.data).ToHex(), c.mac);
  }
}

TEST(HmacTest, ConstantTimeEquals) {
  Digest a = Sha256::Hash(std::string_view("x"));
  Digest b = a;
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  b.bytes[31] ^= 1;
  EXPECT_FALSE(ConstantTimeEquals(a, b));
}

// --- Signer / Verifier / SignatureSet ---------------------------------------

TEST(SignerTest, SignVerifyRoundTrip) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Bytes msg = ToBytes("hello world");
  Signature sig = signer->Sign(msg);
  EXPECT_EQ(sig.signer, 3u);
  EXPECT_TRUE(scheme.verifier().Verify(msg, sig));
}

TEST(SignerTest, TamperedMessageFailsVerification) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Bytes msg = ToBytes("hello world");
  Signature sig = signer->Sign(msg);
  msg[0] ^= 1;
  EXPECT_FALSE(scheme.verifier().Verify(msg, sig));
}

TEST(SignerTest, CannotClaimAnotherSignerId) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Bytes msg = ToBytes("hello world");
  Signature sig = signer->Sign(msg);
  sig.signer = 4;  // Forged attribution.
  EXPECT_FALSE(scheme.verifier().Verify(msg, sig));
}

TEST(SignerTest, UnknownSignerRejected) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Signature sig = signer->Sign(ToBytes("m"));
  sig.signer = 99;
  EXPECT_FALSE(scheme.verifier().Verify(ToBytes("m"), sig));
}

TEST(SignerTest, EveryPrincipalRoundTripsAndRejectsTheOthers) {
  HmacSignatureScheme scheme(8, 1234);
  Bytes msg = ToBytes("batch digest");
  for (NodeId id = 0; id < 8; ++id) {
    Signature sig = scheme.MakeSigner(id)->Sign(msg);
    EXPECT_TRUE(scheme.verifier().Verify(msg, sig)) << id;
    for (NodeId other = 0; other < 8; ++other) {
      if (other == id) continue;
      Signature claimed = sig;
      claimed.signer = other;
      EXPECT_FALSE(scheme.verifier().Verify(msg, claimed)) << id << other;
    }
  }
}

TEST(SignerTest, ForeignSchemeSignaturesRejected) {
  HmacSignatureScheme ours(8, 1234);
  HmacSignatureScheme theirs(8, 4321);
  Bytes msg = ToBytes("hello world");
  EXPECT_FALSE(ours.verifier().Verify(msg, theirs.MakeSigner(3)->Sign(msg)));
}

TEST(SignatureSetTest, QuorumSatisfied) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  for (NodeId id : {0u, 1u, 2u}) {
    set.Add(scheme.MakeSigner(id)->Sign(msg));
  }
  std::vector<NodeId> members{0, 1, 2, 3, 4, 5, 6};
  EXPECT_TRUE(set.VerifyQuorum(scheme.verifier(), msg, 3, members).ok());
}

TEST(SignatureSetTest, DuplicateSignersDoNotCount) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  Signature sig = scheme.MakeSigner(0)->Sign(msg);
  set.Add(sig);
  set.Add(sig);
  set.Add(sig);
  std::vector<NodeId> members{0, 1, 2};
  EXPECT_FALSE(set.VerifyQuorum(scheme.verifier(), msg, 2, members).ok());
}

TEST(SignatureSetTest, NonMemberSignaturesIgnored) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  set.Add(scheme.MakeSigner(5)->Sign(msg));  // Not a member below.
  set.Add(scheme.MakeSigner(0)->Sign(msg));
  std::vector<NodeId> members{0, 1, 2};
  EXPECT_FALSE(set.VerifyQuorum(scheme.verifier(), msg, 2, members).ok());
  EXPECT_TRUE(set.VerifyQuorum(scheme.verifier(), msg, 1, members).ok());
}

TEST(SignatureSetTest, InvalidSignatureFailsWholeCertificate) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  set.Add(scheme.MakeSigner(0)->Sign(msg));
  Signature bad = scheme.MakeSigner(1)->Sign(ToBytes("other message"));
  set.Add(bad);
  std::vector<NodeId> members{0, 1, 2};
  Status s = set.VerifyQuorum(scheme.verifier(), msg, 1, members);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kVerificationFailed);
}

TEST(SignatureSetTest, EncodeDecodeRoundTrip) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("payload");
  SignatureSet set;
  set.Add(scheme.MakeSigner(0)->Sign(msg));
  set.Add(scheme.MakeSigner(1)->Sign(msg));
  Encoder enc;
  Encode(set, &enc);
  Decoder dec(enc.buffer());
  Result<SignatureSet> decoded = Decode<SignatureSet>(&dec);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ(decoded->signatures[0], set.signatures[0]);
  EXPECT_EQ(decoded->signatures[1], set.signatures[1]);
}

}  // namespace
}  // namespace transedge::crypto
