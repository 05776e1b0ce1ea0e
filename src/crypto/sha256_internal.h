#ifndef TRANSEDGE_CRYPTO_SHA256_INTERNAL_H_
#define TRANSEDGE_CRYPTO_SHA256_INTERNAL_H_

// The SHA-256 block-compress and pair-hash implementations behind
// `Sha256` and `HashPair`. Internal to crypto/sha256.cc; exposed only so
// tests can run every implementation the host supports against the
// portable one, whichever the runtime dispatch picks.

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

#if defined(__x86_64__) || defined(__i386__)
#define TRANSEDGE_SHA256_HAVE_SHANI 1
#endif

namespace transedge::crypto::internal {

/// Absorbs `count` consecutive 64-byte blocks into `state` (FIPS 180-4
/// §6.2.2 per block).
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t count);

/// Plain C++ rounds; runs on every CPU.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);

#ifdef TRANSEDGE_SHA256_HAVE_SHANI
/// x86 SHA extensions. Only call when `CpuHasShaNi()` is true.
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count);
#endif

/// The Merkle combiner: SHA-256 of the 64 bytes `left || right`.
using HashPairFn = Digest (*)(const Digest& left, const Digest& right);

/// The message block and the fixed padding block through the portable
/// rounds.
Digest HashPairPortable(const Digest& left, const Digest& right);

#ifdef TRANSEDGE_SHA256_HAVE_SHANI
/// Fused x86 SHA extensions kernel: the digests load straight into the
/// message schedule, the padding block runs from a precomputed W+K table,
/// and the state stores straight to digest bytes. Only call when
/// `CpuHasShaNi()` is true.
Digest HashPairShaNi(const Digest& left, const Digest& right);
#endif

/// True when the CPU executes the SHA-NI path: SHA extensions (CPUID leaf
/// 7 EBX bit 29) plus SSSE3 and SSE4.1. Always false off x86.
bool CpuHasShaNi();

}  // namespace transedge::crypto::internal

#endif  // TRANSEDGE_CRYPTO_SHA256_INTERNAL_H_
