// Differential test of the SHA-256 block-compress and pair-hash
// implementations: the portable rounds against the SHA-NI ones, and the
// dispatched `Sha256` against a reference built on the portable rounds
// alone. On a SHA-NI host the dispatcher never runs the portable path, so
// this is where it stays covered.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace transedge::crypto {
namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

Bytes RandomBytes(Rng* rng, size_t len) {
  Bytes out(len);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

/// A whole SHA-256 (padding included) over one compress implementation.
Digest HashWith(internal::CompressFn compress, const Bytes& data) {
  Bytes msg = data;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  compress(state, msg.data(), msg.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out.bytes[i * 4 + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

TEST(Sha256DispatchTest, PortableReferenceMatchesKnownVector) {
  EXPECT_EQ(HashWith(internal::CompressPortable, ToBytes("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256DispatchTest, DispatchedHashMatchesPortableAtEveryLength) {
  Rng rng(11);
  for (size_t len = 0; len <= 300; ++len) {
    Bytes data = RandomBytes(&rng, len);
    EXPECT_EQ(Sha256::Hash(data), HashWith(internal::CompressPortable, data))
        << "length " << len;
  }
}

TEST(Sha256DispatchTest, RandomUpdateSplitsMatchPortable) {
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data = RandomBytes(&rng, rng.NextBounded(1000));
    Sha256 h;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t take = rng.NextBounded(data.size() - pos + 1);
      h.Update(data.data() + pos, take);
      pos += take;
    }
    EXPECT_EQ(h.Finish(), HashWith(internal::CompressPortable, data))
        << "trial " << trial << ", length " << data.size();
  }
}

/// A random (left, right) pair and the 64-byte message it stands for.
struct RandomPair {
  Digest left;
  Digest right;
  Bytes message;
};

RandomPair MakeRandomPair(Rng* rng) {
  RandomPair pair;
  pair.message = RandomBytes(rng, 64);
  std::memcpy(pair.left.bytes.data(), pair.message.data(), 32);
  std::memcpy(pair.right.bytes.data(), pair.message.data() + 32, 32);
  return pair;
}

TEST(Sha256DispatchTest, HashPairMatchesPortable) {
  Rng rng(13);
  for (int trial = 0; trial < 1000; ++trial) {
    RandomPair pair = MakeRandomPair(&rng);
    const Digest reference =
        HashWith(internal::CompressPortable, pair.message);
    EXPECT_EQ(HashPair(pair.left, pair.right), reference) << "trial " << trial;
    EXPECT_EQ(internal::HashPairPortable(pair.left, pair.right), reference)
        << "trial " << trial;
  }
}

#ifdef TRANSEDGE_SHA256_HAVE_SHANI

TEST(Sha256DispatchTest, FusedShaNiHashPairMatchesPortable) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(24);
  for (int trial = 0; trial < 20000; ++trial) {
    RandomPair pair = MakeRandomPair(&rng);
    ASSERT_EQ(internal::HashPairShaNi(pair.left, pair.right),
              internal::HashPairPortable(pair.left, pair.right))
        << "trial " << trial;
  }
  // Chained, as a Merkle climb feeds each output back in.
  Digest acc{};
  Digest portable{};
  for (int level = 0; level < 64; ++level) {
    acc = internal::HashPairShaNi(acc, acc);
    portable = internal::HashPairPortable(portable, portable);
  }
  EXPECT_EQ(acc, portable);
}

TEST(Sha256DispatchTest, ShaNiMatchesPortableAtEveryLength) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(21);
  for (size_t len = 0; len <= 300; ++len) {
    Bytes data = RandomBytes(&rng, len);
    EXPECT_EQ(HashWith(internal::CompressShaNi, data),
              HashWith(internal::CompressPortable, data))
        << "length " << len;
  }
}

TEST(Sha256DispatchTest, ShaNiMatchesPortableOnMultiBlockRuns) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(22);
  for (size_t blocks : {1u, 2u, 3u, 7u, 16u, 64u}) {
    for (int trial = 0; trial < 10; ++trial) {
      Bytes data = RandomBytes(&rng, 64 * blocks);
      // Arbitrary starting states, not only the initial vector.
      uint32_t portable[8];
      for (uint32_t& w : portable) w = static_cast<uint32_t>(rng.Next());
      uint32_t shani[8];
      std::memcpy(shani, portable, sizeof(shani));
      internal::CompressPortable(portable, data.data(), blocks);
      internal::CompressShaNi(shani, data.data(), blocks);
      EXPECT_EQ(0, std::memcmp(portable, shani, sizeof(shani)))
          << blocks << " blocks, trial " << trial;
    }
  }
}

TEST(Sha256DispatchTest, ShaNiCountZeroLeavesStateAlone) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  internal::CompressShaNi(state, nullptr, 0);
  EXPECT_EQ(0, std::memcmp(state, kInit, sizeof(state)));
}

#endif  // TRANSEDGE_SHA256_HAVE_SHANI

}  // namespace
}  // namespace transedge::crypto
