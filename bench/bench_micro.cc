// Micro-benchmarks of TransEdge's building blocks (google-benchmark):
// SHA-256, HMAC, Merkle updates (single and batched) and proofs, OCC
// conflict detection, CD-vector operations, versioned-store lookups and
// the paged format's CRC-32. These are host-machine numbers (real time),
// not simulated time.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "txn/cd_vector.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "merkle/merkle_tree.h"
#include "storage/paged/format.h"
#include "storage/versioned_store.h"
#include "txn/types.h"

namespace transedge {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(4096);

// The Merkle combiner: one 64-byte message, two compressions.
void BM_HashPair(benchmark::State& state) {
  crypto::Digest left = crypto::Sha256::Hash(std::string_view("left"));
  crypto::Digest right = crypto::Sha256::Hash(std::string_view("right"));
  for (auto _ : state) {
    left = crypto::HashPair(left, right);
    benchmark::DoNotOptimize(left);
  }
}
BENCHMARK(BM_HashPair);

void BM_HmacSign(benchmark::State& state) {
  crypto::HmacSignatureScheme scheme(8, 1);
  auto signer = scheme.MakeSigner(0);
  Bytes msg(256, 0x7e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->Sign(msg));
  }
}
BENCHMARK(BM_HmacSign);

// Through the scheme's shared Verifier, as certificate checks run it.
void BM_HmacVerify(benchmark::State& state) {
  crypto::HmacSignatureScheme scheme(8, 1);
  auto signer = scheme.MakeSigner(0);
  Bytes msg(256, 0x7e);
  crypto::Signature sig = signer->Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.verifier().Verify(msg, sig));
  }
}
BENCHMARK(BM_HmacVerify);

void BM_MerklePut(benchmark::State& state) {
  merkle::MerkleTree tree(static_cast<int>(state.range(0)));
  Bytes value(32, 0x11);
  int64_t i = 0;
  for (auto _ : state) {
    tree.Put("key" + std::to_string(i % 4096), value, i);
    ++i;
  }
}
BENCHMARK(BM_MerklePut)->Arg(8)->Arg(13)->Arg(20);

// A batch of range(0) writes applied with one PutBatch to a clone of a
// depth-16 tree holding 4096 keys, as a replica re-derives a post-batch
// root. Items are writes, so the per-item time compares with
// BM_MerklePut.
void BM_MerkleApplyBatch(benchmark::State& state) {
  merkle::MerkleTree base(16);
  Bytes value(32, 0x11);
  for (int i = 0; i < 4096; ++i) {
    base.Put("key" + std::to_string(i), value, 0);
  }
  std::vector<std::string> keys;
  for (int64_t i = 0; i < state.range(0); ++i) {
    keys.push_back("key" + std::to_string(i * 7));
  }
  std::vector<merkle::MerkleTree::Write> writes;
  for (const std::string& k : keys) writes.push_back({&k, &value, 1});
  for (auto _ : state) {
    merkle::MerkleTree tree = base.Clone();
    tree.PutBatch(writes);
    benchmark::DoNotOptimize(tree.RootDigest());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleApplyBatch)->Arg(8)->Arg(64)->Arg(512);

void BM_MerkleProve(benchmark::State& state) {
  merkle::MerkleTree tree(13);
  Bytes value(32, 0x11);
  for (int i = 0; i < 4096; ++i) {
    tree.Put("key" + std::to_string(i), value, i);
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Prove("key" + std::to_string(i % 4096)));
    ++i;
  }
}
BENCHMARK(BM_MerkleProve);

void BM_MerkleVerify(benchmark::State& state) {
  merkle::MerkleTree tree(13);
  Bytes value(32, 0x11);
  for (int i = 0; i < 4096; ++i) {
    tree.Put("key" + std::to_string(i), value, i);
  }
  merkle::MerkleProof proof = tree.Prove("key7").value();
  crypto::Digest root = tree.RootDigest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        merkle::MerkleTree::VerifyProof(proof, "key7", value, 7, root));
  }
}
BENCHMARK(BM_MerkleVerify);

// N claims (keys spread over the tree) checked in one VerifyProofs pass
// against the same depth-13, 4096-key root as BM_MerkleVerify.
void BM_MerkleVerifyProofs(benchmark::State& state) {
  merkle::MerkleTree tree(13);
  Bytes value(32, 0x11);
  for (int i = 0; i < 4096; ++i) {
    tree.Put("key" + std::to_string(i), value, 7);
  }
  const int n = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  std::vector<merkle::MerkleProof> proofs;
  for (int i = 0; i < n; ++i) {
    keys.push_back("key" + std::to_string(i * 251 % 4096));
    proofs.push_back(tree.Prove(keys.back()).value());
  }
  std::vector<merkle::MerkleTree::Claim> claims;
  for (int i = 0; i < n; ++i) {
    claims.push_back({&proofs[i], &keys[i], &value, 7});
  }
  crypto::Digest root = tree.RootDigest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(merkle::MerkleTree::VerifyProofs(claims, root));
  }
}
BENCHMARK(BM_MerkleVerifyProofs)->Arg(1)->Arg(16);

void BM_ConflictCheck(benchmark::State& state) {
  Transaction a, b;
  for (int i = 0; i < 5; ++i) {
    a.read_set.push_back(ReadOp{"ra" + std::to_string(i), 0});
    b.read_set.push_back(ReadOp{"rb" + std::to_string(i), 0});
  }
  for (int i = 0; i < 3; ++i) {
    a.write_set.push_back(WriteOp{"wa" + std::to_string(i), {}});
    b.write_set.push_back(WriteOp{"wb" + std::to_string(i), {}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conflicts(a, b));
  }
}
BENCHMARK(BM_ConflictCheck);

void BM_CdVectorPairwiseMax(benchmark::State& state) {
  txn::CdVector a(static_cast<size_t>(state.range(0)));
  txn::CdVector b(static_cast<size_t>(state.range(0)));
  for (PartitionId p = 0; p < state.range(0); ++p) {
    b.Set(p, static_cast<BatchId>(p * 3));
  }
  for (auto _ : state) {
    a.PairwiseMax(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_CdVectorPairwiseMax)->Arg(5)->Arg(64);

// Definition 3.1's read check: the latest version of one key in a store
// of range(0) keys, for a key the store holds (range(1) = 1) or lacks.
void BM_StoreLatestVersion(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::VersionedStore store;
  for (int64_t i = 0; i < n; ++i) {
    store.Put("key" + std::to_string(i), Bytes(32, 0x11), 0);
  }
  const std::string prefix = state.range(1) == 1 ? "key" : "absent";
  std::vector<std::string> probes;
  for (int64_t i = 0; i < 1024; ++i) {
    probes.push_back(prefix + std::to_string(i * 7919 % n));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.LatestVersion(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_StoreLatestVersion)
    ->Args({4096, 1})
    ->Args({4096, 0})
    ->Args({100000, 1})
    ->Args({100000, 0});

// The checksum every page and WAL record carries.
void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::paged::Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096);

}  // namespace
}  // namespace transedge

BENCHMARK_MAIN();
