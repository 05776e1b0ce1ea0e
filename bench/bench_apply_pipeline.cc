// Decided vs. applied throughput on the apply worker: the same
// local-write workload on one cluster while an artificial apply-cost
// inflation varies. Consensus decides the next batch while the apply
// worker charges the previous one, so last_applied trails the log
// tail — the gap this bench pins.

#include <algorithm>
#include <functional>

#include "bench_common.h"

using namespace transedge;
using namespace transedge::bench;

namespace {

struct Point {
  double write_tps = 0;
  double decided_per_sec = 0;
  double applied_per_sec = 0;
  double max_apply_lag = 0;  // Batches, sampled while the run is hot.
};

Point RunOne(int apply_cost_x, uint64_t seed, sim::Time measure,
             bool smoke) {
  BenchSetup setup = BenchSetup::PaperDefaults(seed);
  setup.config.consensus_kind = core::ConsensusKind::kLinearVote;
  setup.config.num_partitions = 1;  // Consensus + apply are intra-cluster.
  setup.config.f = 2;
  setup.workload.num_keys = 1000000;  // Paper key count; no preload.
  setup.config.merkle_depth = 16;
  setup.config.cost.apply_per_txn =
      setup.config.cost.apply_per_txn * apply_cost_x;
  World world(setup, /*preload=*/false);

  int clients = smoke ? 40 : 100;
  int concurrency = static_cast<int>(setup.config.max_batch_size / 50);
  workload::ClosedLoopRunner runner(
      world.system.get(), clients,
      [&](Rng* rng) { return world.plans->MakeWriteOnly(3, rng); },
      workload::RoMode::kTransEdge, seed ^ 0x7e, concurrency);

  const sim::Time t0 = sim::Millis(500);
  const sim::Time t1 = t0 + measure;
  runner.Start(t0, t1);

  // Counter snapshots over the measurement window plus a lag probe: the
  // decided watermark is the leader's log tail, the applied watermark is
  // last_applied.
  uint64_t decided_at_t0 = 0, decided_at_t1 = 0;
  BatchId applied_at_t0 = kNoBatch, applied_at_t1 = kNoBatch;
  BatchId max_lag = 0;
  const core::TransEdgeNode* leader = world.system->node(0, 0);
  sim::Environment& env = world.system->env();
  env.Schedule(t0 - env.now(), [&] {
    decided_at_t0 = leader->stats().batches_decided;
    applied_at_t0 = leader->last_applied();
  });
  env.Schedule(t1 - env.now(), [&] {
    decided_at_t1 = leader->stats().batches_decided;
    applied_at_t1 = leader->last_applied();
  });
  std::function<void()> probe = [&] {
    BatchId lag = leader->log().LastBatchId() - leader->last_applied();
    max_lag = std::max(max_lag, lag);
    if (env.now() < t1) env.Schedule(sim::Millis(5), probe);
  };
  env.Schedule(t0 - env.now(), probe);

  runner.RunToCompletion(smoke ? sim::Millis(800) : sim::Millis(1200));

  Point point;
  point.write_tps = runner.ThroughputTps();
  const double secs = static_cast<double>(measure) / 1e6;
  point.decided_per_sec =
      static_cast<double>(decided_at_t1 - decided_at_t0) / secs;
  point.applied_per_sec =
      static_cast<double>(applied_at_t1 - applied_at_t0) / secs;
  point.max_apply_lag = static_cast<double>(max_lag);
  return point;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const sim::Time measure = smoke ? sim::Millis(1000) : sim::Millis(1500);

  const int apply_cost_xs[] = {1, 10};

  if (smoke) {
    std::printf("{\"bench\":\"apply_pipeline\",\"smoke\":true,\"points\":[");
    bool first = true;
    for (int x : apply_cost_xs) {
      Point p = RunOne(x, 42, measure, smoke);
      std::printf(
          "%s{\"apply_cost_x\":%d,"
          "\"write_tps\":%.0f,\"decided_batches_per_sec\":%.1f,"
          "\"applied_batches_per_sec\":%.1f,\"max_apply_lag\":%.1f}",
          first ? "" : ",", x, p.write_tps, p.decided_per_sec,
          p.applied_per_sec, p.max_apply_lag);
      first = false;
    }
    std::printf("]}\n");
    return 0;
  }

  PrintHeader("Apply pipeline: decided vs applied throughput");
  std::printf("%7s %12s %14s %14s %9s\n", "cost×", "write TPS", "decided/s",
              "applied/s", "max lag");
  for (int x : apply_cost_xs) {
    Point p = RunOne(x, 42, measure, smoke);
    std::printf("%7d %12.0f %14.1f %14.1f %9.0f\n", x, p.write_tps,
                p.decided_per_sec, p.applied_per_sec, p.max_apply_lag);
  }
  return 0;
}
