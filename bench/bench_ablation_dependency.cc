// Ablation: what the CD-vector machinery actually buys.
//
//  (a) Full TransEdge: paired cross-partition writes are never observed
//      torn by read-only transactions.
//  (b) Merkle-only (Algorithm 2 disabled): each partition's response
//      still authenticates perfectly, yet snapshots tear across
//      partitions — the Figure 1 anomaly, quantified.
//  (c) Strict fixpoint mode: the extension documented at
//      SystemConfig::strict_ro_rounds (see also the bench/e2e/README.md
//      finding on reads that do not settle in two rounds); reports the
//      round distribution.

#include <functional>

#include "bench_common.h"

using namespace transedge;
using namespace transedge::bench;

namespace {

struct Outcome {
  int reads = 0;
  int torn = 0;
  int two_round = 0;
  int max_rounds = 1;
};

Outcome RunOne(bool verify_dependencies, bool strict, uint64_t seed) {
  BenchSetup setup = BenchSetup::PaperDefaults(seed);
  setup.config.num_partitions = 3;
  setup.config.strict_ro_rounds = strict;
  setup.config.batch_interval = sim::Millis(5);
  setup.env_opts.inter_site_latency = sim::Millis(8);
  World world(setup);

  storage::PartitionMap pmap(3);
  Key kx, ky;
  {
    Rng rng(seed);
    while (kx.empty() || ky.empty()) {
      const Key& k = world.keys->RandomKey(&rng);
      if (pmap.OwnerOf(k) == 0 && kx.empty()) kx = k;
      if (pmap.OwnerOf(k) == 1 && ky.empty()) ky = k;
    }
  }

  core::Client* writer = world.system->AddClient();
  core::Client* reader = world.system->AddClient();
  reader->set_verify_dependencies(verify_dependencies);

  auto version = std::make_shared<int>(0);
  auto write_loop = std::make_shared<std::function<void()>>();
  *write_loop = [&, version, write_loop] {
    if (world.system->env().now() > sim::Seconds(4)) return;
    std::string v = "v" + std::to_string(++*version);
    writer->ExecuteReadWrite(
        {}, {WriteOp{kx, ToBytes(v)}, WriteOp{ky, ToBytes(v)}},
        [write_loop](core::RwResult) { (*write_loop)(); });
  };

  auto outcome = std::make_shared<Outcome>();
  auto read_loop = std::make_shared<std::function<void()>>();
  *read_loop = [&, outcome, read_loop] {
    if (world.system->env().now() > sim::Seconds(4)) return;
    reader->ExecuteReadOnly({kx, ky}, [outcome, read_loop,
                                       read_pair = std::pair<Key, Key>{kx,
                                                                       ky}](
                                          core::RoResult r) {
      if (r.status.ok()) {
        ++outcome->reads;
        const auto& x = r.values[read_pair.first];
        const auto& y = r.values[read_pair.second];
        if (x.has_value() && y.has_value()) {
          std::string xs = ToString(*x);
          std::string ys = ToString(*y);
          if ((xs.starts_with("v") || ys.starts_with("v")) && xs != ys) {
            ++outcome->torn;
          }
        }
        if (r.rounds > 1) ++outcome->two_round;
        if (r.rounds > outcome->max_rounds) outcome->max_rounds = r.rounds;
      }
      (*read_loop)();
    });
  };

  world.system->env().Schedule(sim::Millis(30), [&] {
    (*write_loop)();
    (*read_loop)();
  });
  world.system->env().RunUntil(sim::Seconds(8));
  return *outcome;
}

}  // namespace

int main() {
  PrintHeader("Ablation: dependency tracking on/off (Figure 1 anomaly)");
  std::printf("%-28s %8s %8s %10s %10s\n", "variant", "reads", "torn",
              "2-round", "max-rounds");
  for (uint64_t seed : {42ull, 43ull, 44ull}) {
    Outcome full = RunOne(/*verify=*/true, /*strict=*/false, seed);
    Outcome merkle_only = RunOne(/*verify=*/false, /*strict=*/false, seed);
    Outcome strict = RunOne(/*verify=*/true, /*strict=*/true, seed);
    std::printf("seed %llu\n", static_cast<unsigned long long>(seed));
    std::printf("  %-26s %8d %8d %10d %10d\n", "TransEdge (paper)",
                full.reads, full.torn, full.two_round, full.max_rounds);
    std::printf("  %-26s %8d %8d %10d %10d\n", "Merkle-only (no Alg. 2)",
                merkle_only.reads, merkle_only.torn, merkle_only.two_round,
                merkle_only.max_rounds);
    std::printf("  %-26s %8d %8d %10d %10d\n", "Strict fixpoint (ext.)",
                strict.reads, strict.torn, strict.two_round,
                strict.max_rounds);
  }
  return 0;
}
