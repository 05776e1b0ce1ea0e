// Durability cost and recovery profile of the paged storage backend.
//
// Part 1 — write path: the same closed-loop write workload on one
// cluster under the in-memory engine and several paged configurations
// (fsync-per-batch vs group commit, checkpoint cadence). The WAL append
// + fsync sit on the decision critical path, so the simulated-time gap
// to the in-memory engine is exactly the durability tax; group commit
// amortizes the fsync share of it.
//
// Part 2 — recovery: clones of a running replica's disk are crash-stopped
// at increasing run lengths and recovered offline. With checkpoints
// disabled, WAL replay (and so restart time) grows with the log; with a
// periodic checkpoint the replay window — and the simulated recovery
// time, priced with the node's own I/O cost model — stays bounded.

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "storage/paged/paged_backend.h"
#include "storage/paged/sim_disk.h"

using namespace transedge;
using namespace transedge::bench;

namespace {

struct WriteCase {
  const char* label;
  storage::StorageKind storage;
  uint32_t wal_group_commit;
  uint32_t checkpoint_interval;
};

struct WritePoint {
  double write_tps = 0;
  double decided_per_sec = 0;
  double wal_syncs = 0;
  double checkpoints = 0;
  double pages_written = 0;
};

BenchSetup DurabilitySetup(uint64_t seed) {
  BenchSetup setup = BenchSetup::PaperDefaults(seed);
  setup.config.consensus_kind = core::ConsensusKind::kLinearVote;
  setup.config.num_partitions = 1;  // Durability is per-replica.
  setup.config.f = 2;
  setup.workload.num_keys = 1000000;  // Paper key count; no preload.
  setup.config.merkle_depth = 16;
  return setup;
}

WritePoint RunWriteCase(const WriteCase& c, uint64_t seed, sim::Time measure,
                        bool smoke) {
  BenchSetup setup = DurabilitySetup(seed);
  setup.config.storage_kind = c.storage;
  setup.config.durability.wal_group_commit = c.wal_group_commit;
  setup.config.durability.checkpoint_interval = c.checkpoint_interval;
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

  uint64_t decided_at_t0 = 0, decided_at_t1 = 0;
  storage::StorageIoStats io_at_t0, io_at_t1;
  const core::TransEdgeNode* leader = world.system->node(0, 0);
  sim::Environment& env = world.system->env();
  env.Schedule(t0 - env.now(), [&] {
    decided_at_t0 = leader->stats().batches_decided;
    io_at_t0 = leader->backend().io_stats();
  });
  env.Schedule(t1 - env.now(), [&] {
    decided_at_t1 = leader->stats().batches_decided;
    io_at_t1 = leader->backend().io_stats();
  });
  runner.RunToCompletion(smoke ? sim::Millis(800) : sim::Millis(1200));

  WritePoint point;
  point.write_tps = runner.ThroughputTps();
  const double secs = static_cast<double>(measure) / 1e6;
  point.decided_per_sec =
      static_cast<double>(decided_at_t1 - decided_at_t0) / secs;
  point.wal_syncs =
      static_cast<double>(io_at_t1.wal_syncs - io_at_t0.wal_syncs);
  point.checkpoints =
      static_cast<double>(io_at_t1.checkpoints - io_at_t0.checkpoints);
  point.pages_written =
      static_cast<double>(io_at_t1.pages_written - io_at_t0.pages_written);
  return point;
}

struct RecoveryPoint {
  double log_len = 0;             // Batches the recovered log holds.
  double replayed = 0;            // WAL records re-decoded.
  double reapply_window = 0;      // Batches past the checkpoint.
  double reapplied_txns = 0;      // Transactions re-executed from those.
  double pages_read = 0;          // Checkpoint pages loaded.
  double recovery_ms = 0;         // Simulated, via the node's cost model.

  /// The restart's price per re-executed transaction, which a longer log
  /// at the same crash time does not inflate; 0 when none was re-executed.
  double recovery_us_per_txn() const {
    return reapplied_txns > 0 ? recovery_ms * 1e3 / reapplied_txns : 0;
  }
};

/// Runs one paged deployment and recovers disk clones of replica (0,1)
/// at each of `sample_times`, offline. Returns one point per sample.
std::vector<RecoveryPoint> RunRecoverySweep(uint32_t checkpoint_interval,
                                            uint64_t seed,
                                            std::vector<sim::Time> samples,
                                            bool smoke) {
  BenchSetup setup = DurabilitySetup(seed);
  setup.config.storage_kind = storage::StorageKind::kPaged;
  setup.config.durability.checkpoint_interval = checkpoint_interval;
  // Recovery needs a formatted disk: the preload handoff writes the base
  // checkpoint (genesis meta) that every later Recover starts from.
  setup.workload.num_keys = 20000;
  World world(setup, /*preload=*/true);

  int clients = smoke ? 40 : 100;
  int concurrency = static_cast<int>(setup.config.max_batch_size / 50);
  workload::ClosedLoopRunner runner(
      world.system.get(), clients,
      [&](Rng* rng) { return world.plans->MakeWriteOnly(3, rng); },
      workload::RoMode::kTransEdge, seed ^ 0x7e, concurrency);
  const sim::Time t_end = samples.back() + sim::Millis(100);
  runner.Start(sim::Millis(500), t_end);

  storage::StorageTuning tuning = setup.config.durability;
  const crypto::NodeId replica = setup.config.ReplicaNode(0, 1);
  const core::CostModel& cost = setup.config.cost;

  std::vector<RecoveryPoint> points;
  for (sim::Time at : samples) {
    world.system->env().RunUntil(at);
    storage::paged::SimDisk crashed = world.system->disk(replica)->Clone();
    crashed.Crash(crashed.op_count(), storage::paged::SimDisk::CrashMode::kNone);
    storage::paged::PagedBackend recovered(tuning, &crashed);
    Result<storage::RecoveredState> rec = recovered.Recover({});
    RecoveryPoint point;
    if (rec.ok()) {
      const storage::StorageIoStats& io = recovered.io_stats();
      point.log_len = static_cast<double>(recovered.log().LastBatchId() -
                                          recovered.log().FirstBatchId() + 1);
      point.replayed = static_cast<double>(io.wal_records_replayed);
      point.pages_read = static_cast<double>(io.pages_read);
      // The WAL rebuilds the whole retained log either way; what the
      // checkpoint bounds is the store re-apply window behind the tail.
      const BatchId tail = recovered.log().LastBatchId();
      uint64_t reapplied_txns = 0;
      for (BatchId id = rec->checkpoint_applied + 1; id <= tail; ++id) {
        Result<const storage::LogEntry*> entry = recovered.log().Get(id);
        if (!entry.ok()) continue;
        const storage::Batch& b = entry.value()->batch;
        reapplied_txns += b.local.size() + b.prepared.size();
      }
      point.reapply_window = static_cast<double>(tail - rec->checkpoint_applied);
      point.reapplied_txns = static_cast<double>(reapplied_txns);
      // Price the restart with the node's I/O cost model: page reads for
      // the checkpoint, wal_read per replayed record, and apply cost for
      // the re-apply window.
      sim::Time t = static_cast<sim::Time>(io.pages_read) * cost.page_read +
                    static_cast<sim::Time>(io.wal_records_replayed) *
                        cost.wal_read +
                    static_cast<sim::Time>(reapplied_txns) *
                        cost.apply_per_txn;
      point.recovery_ms = static_cast<double>(t) / 1e3;
    }
    points.push_back(point);
  }
  runner.RunToCompletion(sim::Millis(800));
  return points;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const sim::Time measure = smoke ? sim::Millis(1000) : sim::Millis(1500);

  const WriteCase cases[] = {
      {"in_memory", storage::StorageKind::kInMemory, 1, 64},
      {"paged_sync_each", storage::StorageKind::kPaged, 1, 64},
      {"paged_group8", storage::StorageKind::kPaged, 8, 64},
      {"paged_group8_ckpt16", storage::StorageKind::kPaged, 8, 16},
  };

  std::vector<sim::Time> samples;
  const int sample_count = smoke ? 3 : 6;
  for (int i = 1; i <= sample_count; ++i) {
    samples.push_back(sim::Millis(500) + sim::Millis(1000) * i);
  }

  if (smoke) {
    std::printf("{\"bench\":\"durability\",\"smoke\":true,\"write\":[");
    bool first = true;
    for (const WriteCase& c : cases) {
      WritePoint p = RunWriteCase(c, 42, measure, smoke);
      std::printf(
          "%s{\"config\":\"%s\",\"wal_group_commit\":%u,"
          "\"checkpoint_interval\":%u,\"write_tps\":%.0f,"
          "\"decided_batches_per_sec\":%.1f,\"wal_syncs\":%.1f,"
          "\"checkpoints\":%.1f,\"pages_written\":%.1f}",
          first ? "" : ",", c.label, c.wal_group_commit, c.checkpoint_interval,
          p.write_tps, p.decided_per_sec, p.wal_syncs, p.checkpoints,
          p.pages_written);
      first = false;
    }
    std::printf("],\"recovery\":[");
    struct Sweep {
      const char* label;
      uint32_t checkpoint_interval;
    };
    const Sweep sweeps[] = {{"wal_only", 1u << 20}, {"checkpointed", 16}};
    bool first_sweep = true;
    for (const Sweep& s : sweeps) {
      std::vector<RecoveryPoint> points =
          RunRecoverySweep(s.checkpoint_interval, 42, samples, smoke);
      std::printf("%s{\"config\":\"%s\",\"points\":[",
                  first_sweep ? "" : ",", s.label);
      for (size_t i = 0; i < points.size(); ++i) {
        const RecoveryPoint& p = points[i];
        std::printf(
            "%s{\"point\":%zu,\"log_len\":%.1f,\"wal_records_replayed\":%.1f,"
            "\"reapply_window\":%.1f,\"reapplied_txns\":%.1f,"
            "\"checkpoint_pages_read\":%.1f,\"recovery_ms\":%.3f",
            i == 0 ? "" : ",", i + 1, p.log_len, p.replayed, p.reapply_window,
            p.reapplied_txns, p.pages_read, p.recovery_ms);
        // Only a point that re-executed something has a price per txn.
        if (p.reapplied_txns > 0) {
          std::printf(",\"recovery_us_per_txn\":%.3f", p.recovery_us_per_txn());
        }
        std::printf("}");
      }
      std::printf("]}");
      first_sweep = false;
    }
    std::printf("]}\n");
    return 0;
  }

  PrintHeader("Durability tax: write throughput per storage configuration");
  std::printf("%-22s %8s %8s %12s %14s %10s %12s %14s\n", "config", "group",
              "ckpt", "write TPS", "decided/s", "wal syncs", "checkpoints",
              "pages written");
  for (const WriteCase& c : cases) {
    WritePoint p = RunWriteCase(c, 42, measure, smoke);
    std::printf("%-22s %8u %8u %12.0f %14.1f %10.0f %12.0f %14.0f\n", c.label,
                c.wal_group_commit, c.checkpoint_interval, p.write_tps,
                p.decided_per_sec, p.wal_syncs, p.checkpoints,
                p.pages_written);
  }

  PrintHeader("Recovery cost vs log length");
  std::printf("%-14s %8s %10s %12s %10s %12s %12s %14s %14s\n", "config",
              "point", "log len", "replayed", "window", "reapplied",
              "pages read", "recovery ms", "us per txn");
  struct Sweep {
    const char* label;
    uint32_t checkpoint_interval;
  };
  const Sweep sweeps[] = {{"wal_only", 1u << 20}, {"checkpointed", 16}};
  for (const Sweep& s : sweeps) {
    std::vector<RecoveryPoint> points =
        RunRecoverySweep(s.checkpoint_interval, 42, samples, smoke);
    for (size_t i = 0; i < points.size(); ++i) {
      const RecoveryPoint& p = points[i];
      std::printf(
          "%-14s %8zu %10.0f %12.0f %10.0f %12.0f %12.0f %14.3f %14.3f\n",
          s.label, i + 1, p.log_len, p.replayed, p.reapply_window,
          p.reapplied_txns, p.pages_read, p.recovery_ms,
          p.recovery_us_per_txn());
    }
  }
  return 0;
}
