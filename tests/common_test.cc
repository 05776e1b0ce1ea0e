#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace transedge {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Conflict("write-write clash");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsConflict());
  EXPECT_EQ(s.ToString(), "Conflict: write-write clash");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::VerificationFailed("x").IsVerificationFailed());
  EXPECT_FALSE(Status::Internal("x").IsConflict());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status {
    TE_RETURN_IF_ERROR(Status::Timeout("slow"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kTimeout);
  auto passes = []() -> Status {
    TE_RETURN_IF_ERROR(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(passes().code(), StatusCode::kInternal);
}

// --- Result ------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Corruption("bad");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    TE_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(outer(false).value(), 14);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kCorruption);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> moved = std::move(r).value();
  EXPECT_EQ(*moved, 5);
}

// --- Hex ---------------------------------------------------------------------

TEST(HexTest, EncodeDecodeRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  EXPECT_EQ(HexDecode(hex).value(), data);
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
  EXPECT_TRUE(HexDecode("AbCd").ok());  // Upper case accepted.
}

// --- Encoder / Decoder -------------------------------------------------------

TEST(CodecTest, PrimitivesRoundTrip) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0xbeef);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-12345);
  enc.PutBool(true);
  enc.PutString("hello");
  enc.PutBytes(Bytes{1, 2, 3});

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetU8().value(), 0xab);
  EXPECT_EQ(dec.GetU16().value(), 0xbeef);
  EXPECT_EQ(dec.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetI64().value(), -12345);
  EXPECT_EQ(dec.GetBool().value(), true);
  EXPECT_EQ(dec.GetString().value(), "hello");
  EXPECT_EQ(dec.GetBytes().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(dec.exhausted());
}

TEST(CodecTest, ReadPastEndIsCorruption) {
  Encoder enc;
  enc.PutU16(7);
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetU16().ok());
  Result<uint32_t> r = dec.GetU32();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, TruncatedLengthPrefixedBytesFail) {
  Encoder enc;
  enc.PutU32(100);  // Claims 100 bytes follow; none do.
  Decoder dec(enc.buffer());
  EXPECT_FALSE(dec.GetBytes().ok());
}

TEST(CodecTest, EmptyStringAndBytes) {
  Encoder enc;
  enc.PutString("");
  enc.PutBytes({});
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetString().value(), "");
  EXPECT_EQ(dec.GetBytes().value(), Bytes{});
}

TEST(CodecTest, RawBytesHaveNoPrefix) {
  Encoder enc;
  enc.PutRaw(Bytes{9, 9, 9});
  EXPECT_EQ(enc.size(), 3u);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetRaw(3).value(), (Bytes{9, 9, 9}));
}

// --- Fields codec: shared fields --------------------------------------------

struct CodecInner {
  uint32_t count = 0;
  std::string name;
  std::vector<uint16_t> items;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.count, self.name, self.items);
  }
  bool operator==(const CodecInner&) const = default;
};

struct CodecPlain {
  uint64_t id = 0;
  CodecInner inner;
  bool last = false;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.id, self.inner, self.last);
  }
};

struct CodecShared {
  uint64_t id = 0;
  std::shared_ptr<const CodecInner> inner;
  bool last = false;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.id, self.inner, self.last);
  }
};

TEST(CodecTest, SharedFieldEncodesLikeAPlainField) {
  CodecPlain plain;
  plain.id = 7;
  plain.inner = CodecInner{3, "body", {1, 2, 3}};
  plain.last = true;
  CodecShared shared;
  shared.id = 7;
  shared.inner = std::make_shared<const CodecInner>(plain.inner);
  shared.last = true;

  Encoder plain_enc;
  Encode(plain, &plain_enc);
  Encoder shared_enc;
  Encode(shared, &shared_enc);
  EXPECT_EQ(shared_enc.buffer(), plain_enc.buffer());

  // Decoding gives a fresh value, never the sender's object.
  Decoder dec(plain_enc.buffer());
  Result<CodecShared> decoded = Decode<CodecShared>(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(decoded->id, 7u);
  EXPECT_TRUE(decoded->last);
  ASSERT_NE(decoded->inner, nullptr);
  EXPECT_NE(decoded->inner, shared.inner);
  EXPECT_EQ(*decoded->inner, plain.inner);

  // A body cut short fails like a plain one.
  Bytes truncated = plain_enc.buffer();
  truncated.resize(truncated.size() - 3);
  Decoder short_dec(truncated);
  EXPECT_FALSE(Decode<CodecShared>(&short_dec).ok());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(99);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace transedge
