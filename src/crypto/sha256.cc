#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_internal.h"

#ifdef TRANSEDGE_SHA256_HAVE_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace transedge::crypto {

namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr uint32_t Rotr(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void StoreDigest(const uint32_t state[8], Digest* out) {
  for (int i = 0; i < 8; ++i) {
    out->bytes[i * 4 + 0] = static_cast<uint8_t>(state[i] >> 24);
    out->bytes[i * 4 + 1] = static_cast<uint8_t>(state[i] >> 16);
    out->bytes[i * 4 + 2] = static_cast<uint8_t>(state[i] >> 8);
    out->bytes[i * 4 + 3] = static_cast<uint8_t>(state[i]);
  }
}

/// The final block of every 64-byte message: the 0x80 marker, zeros, and
/// the bit length 512 big-endian.
constexpr std::array<uint8_t, 64> kPadFor64 = [] {
  std::array<uint8_t, 64> pad{};
  pad[0] = 0x80;
  pad[62] = 0x02;
  return pad;
}();

internal::CompressFn ResolveCompress() {
#ifdef TRANSEDGE_SHA256_HAVE_SHANI
  if (internal::CpuHasShaNi()) return internal::CompressShaNi;
#endif
  return internal::CompressPortable;
}

internal::HashPairFn ResolveHashPair() {
#ifdef TRANSEDGE_SHA256_HAVE_SHANI
  if (internal::CpuHasShaNi()) return internal::HashPairShaNi;
#endif
  return internal::HashPairPortable;
}

/// The implementation for this CPU, chosen on first use. A function-local
/// static rather than a namespace-scope one: other translation units hash
/// during their own static initialization.
void Compress(uint32_t state[8], const uint8_t* blocks, size_t count) {
  static const internal::CompressFn fn = ResolveCompress();
  fn(state, blocks, count);
}

}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Digest HashPairPortable(const Digest& left, const Digest& right) {
  // The 64-byte message is exactly one block; the padding is a second,
  // fixed block.
  uint8_t blocks[128];
  std::memcpy(blocks, left.bytes.data(), 32);
  std::memcpy(blocks + 32, right.bytes.data(), 32);
  std::memcpy(blocks + 64, kPadFor64.data(), 64);
  uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  CompressPortable(state, blocks, 2);
  Digest out;
  StoreDigest(state, &out);
  return out;
}

#ifdef TRANSEDGE_SHA256_HAVE_SHANI

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH; each sha256rnds2 runs two rounds, and msg1/msg2 expand the
// message schedule four words at a time.

namespace {

/// kInit in the SHA-NI register layout, low lane first: ABEF, then CDGH.
alignas(16) constexpr uint32_t kInitShaNi[8] = {
    kInit[5], kInit[4], kInit[1], kInit[0],
    kInit[7], kInit[6], kInit[3], kInit[2],
};

/// The padding block's message schedule with the round constants added:
/// entry i is W[i] + K[i] of `kPadFor64`, so a pair hash runs the second
/// block's 64 rounds without expanding its schedule. constexpr, so it is
/// filled at compile time: other translation units hash during their own
/// static initialization.
alignas(16) constexpr std::array<uint32_t, 64> kPadWk = [] {
  std::array<uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(kPadFor64[i * 4]) << 24) |
           (static_cast<uint32_t>(kPadFor64[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(kPadFor64[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(kPadFor64[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  for (int i = 0; i < 64; ++i) w[i] += kRound[i];
  return w;
}();

/// Runs the 64 rounds of one block on (abef, cdgh). `msg` holds the
/// block's 16 words, byte-swapped, and is used up as the schedule.
__attribute__((target("sha,sse4.1"), always_inline)) inline void ShaNiRounds(
    __m128i& abef, __m128i& cdgh, __m128i (&msg)[4]) {
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    __m128i wk = _mm_add_epi32(
        msg[i & 3],
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * i])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (i >= 3 && i < 15) {
      // Finish words 4(i+1).. from words 4(i-3).. (msg1 already applied).
      __m128i& next = msg[(i + 1) & 3];
      next = _mm_add_epi32(
          next, _mm_alignr_epi8(msg[i & 3], msg[(i - 1) & 3], 4));
      next = _mm_sha256msg2_epu32(next, msg[i & 3]);
    }
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (i >= 1 && i < 13) {
      // Start words 4(i+3).. in the slot of words 4(i-1)...
      __m128i& prev = msg[(i - 1) & 3];
      prev = _mm_sha256msg1_epu32(prev, msg[i & 3]);
    }
  }
}

}  // namespace

__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;

    // msg[i & 3] holds schedule words 4i..4i+3 for round group i.
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kSwap);
    }
    ShaNiRounds(abef, cdgh, msg);

    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

__attribute__((target("sha,sse4.1"))) Digest HashPairShaNi(
    const Digest& left, const Digest& right) {
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // Reverses all 16 bytes: turns lanes (D, C, B, A), each little-endian,
  // into A..D big-endian, and (H, G, F, E) into E..H.
  const __m128i kReverse =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);
  const __m128i abef_init =
      _mm_load_si128(reinterpret_cast<const __m128i*>(&kInitShaNi[0]));
  const __m128i cdgh_init =
      _mm_load_si128(reinterpret_cast<const __m128i*>(&kInitShaNi[4]));

  // Block 1, the message: the two digests are its 16 words.
  __m128i msg[4] = {
      _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&left.bytes[0])),
          kSwap),
      _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&left.bytes[16])),
          kSwap),
      _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&right.bytes[0])),
          kSwap),
      _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&right.bytes[16])),
          kSwap),
  };
  __m128i abef = abef_init;
  __m128i cdgh = cdgh_init;
  ShaNiRounds(abef, cdgh, msg);
  abef = _mm_add_epi32(abef, abef_init);
  cdgh = _mm_add_epi32(cdgh, cdgh_init);

  // Block 2, the fixed padding: its W+K words come from the table.
  const __m128i abef_mid = abef;
  const __m128i cdgh_mid = cdgh;
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    __m128i wk =
        _mm_load_si128(reinterpret_cast<const __m128i*>(&kPadWk[4 * i]));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }
  abef = _mm_add_epi32(abef, abef_mid);
  cdgh = _mm_add_epi32(cdgh, cdgh_mid);

  Digest out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&out.bytes[0]),
                   _mm_shuffle_epi8(_mm_unpackhi_epi64(cdgh, abef), kReverse));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&out.bytes[16]),
                   _mm_shuffle_epi8(_mm_unpacklo_epi64(cdgh, abef), kReverse));
  return out;
}

bool CpuHasShaNi() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx >> 9) & 1;
  const bool sse41 = (ecx >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx >> 29) & 1;
  return sha && ssse3 && sse41;
}

#else

bool CpuHasShaNi() { return false; }

#endif  // TRANSEDGE_SHA256_HAVE_SHANI

}  // namespace internal

bool Digest::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

std::string Digest::ToHex() const {
  return HexEncode(bytes.data(), bytes.size());
}

std::string Digest::ShortHex() const { return ToHex().substr(0, 8); }

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input, then buffer the tail.
  if (len >= 64) {
    Compress(state_, data, len / 64);
    data += len & ~size_t{63};
    len &= 63;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::Finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit count.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);
  buffer_len_ = 0;

  Digest out;
  StoreDigest(state_, &out);
  return out;
}

Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Digest HashPair(const Digest& left, const Digest& right) {
  // Chosen on first use, like `Compress`.
  static const internal::HashPairFn fn = ResolveHashPair();
  return fn(left, right);
}

}  // namespace transedge::crypto
