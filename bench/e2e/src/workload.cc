#include "workload.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "core/system.h"
#include "probe.h"
#include "storage/paged/sim_disk.h"
#include "storage/partition_map.h"
#include "workload/stats.h"

namespace transedge::e2e {

namespace {

constexpr uint32_t kPartitions = 5;
constexpr size_t kValueSize = 32;
constexpr int kRwReads = 5;
constexpr int kRwWrites = 3;
/// A distributed read-write transaction spans this many clusters.
constexpr int kDistParts = 2;
/// Open-loop read-write ops take their keys from op-sequence slices of
/// the key space, so two ops share keys only when issued 256 ops apart
/// (seconds at these rates): no operation aborts on a conflict.
constexpr uint32_t kOpenSlices = 256;
/// Each closed loop owns this many slices and moves to the next one per
/// op, so an op never meets its predecessor still prepared at a
/// participant.
constexpr uint32_t kLoopSlices = 4;
constexpr int kOpenClients = 32;
/// Clients start once every cluster has certified its genesis batch.
constexpr sim::Time kGenesis = sim::Millis(15);
constexpr sim::Time kDriversStart = sim::Millis(20);
/// Longest drain after the window; beyond the 2 s client timeout, so
/// every window op has resolved by then.
constexpr sim::Time kDrainLimit = sim::Millis(2500);
/// The failover crashes replica kFailoverReplica (a follower in view 0)
/// of partition kFailoverPartition.
constexpr PartitionId kFailoverPartition = 0;
constexpr uint32_t kFailoverReplica = 3;
constexpr sim::Time kFailoverCrashAfter = sim::Seconds(2);
constexpr sim::Time kFailoverDowntime = sim::Seconds(1);
/// Read-write closed loops think for a uniform time below one batch
/// interval between ops. Without it every loop stays locked to the phase
/// of the batch timer it started in, and a run's latencies depend on
/// those starting phases more than on the system.
constexpr uint64_t kThinkTime = sim::Millis(15);
constexpr size_t kMinPercentileSamples = 1000;
/// The measurement window is timed in this many equal slices.
constexpr int kHostSlices = 8;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<Spec> MakeSpecs() {
  std::vector<Spec> specs;

  Spec ro;
  ro.name = "ro_snapshot";
  ro.warmup = sim::Seconds(2);
  ro.window = sim::Seconds(4);
  ro.ro_per_s = 4000;
  ro.rw_per_s = 120;
  ro.ro_limit = sim::Millis(50);
  ro.rw_limit = sim::Millis(200);
  ro.primary = OpKind::kRo;
  specs.push_back(ro);

  Spec rw;
  rw.name = "rw_commit";
  rw.key_space = 1000000;
  rw.preload = false;
  rw.merkle_depth = 16;
  rw.warmup = sim::Seconds(1);
  rw.window = sim::Millis(1500);
  rw.closed_clients = 40;
  rw.closed_depth = 5;
  rw.rw_dist_share = 0.05;
  rw.rw_limit = sim::Millis(500);
  rw.primary = OpKind::kRw;
  specs.push_back(rw);

  Spec mixed;
  mixed.name = "mixed_failover";
  mixed.consensus = core::ConsensusKind::kLinearVote;
  mixed.storage = storage::StorageKind::kPaged;
  mixed.warmup = sim::Seconds(3);
  mixed.window = sim::Seconds(8);
  mixed.ro_per_s = 1000;
  mixed.rw_per_s = 200;
  mixed.rw_dist_share = 0.5;
  mixed.failover = true;
  mixed.ro_limit = sim::Millis(250);
  mixed.rw_limit = sim::Millis(500);
  mixed.primary = OpKind::kRo;
  specs.push_back(mixed);

  Spec watch;
  watch.name = "watch_push";
  watch.consensus = core::ConsensusKind::kLinearVote;
  watch.warmup = sim::Millis(500);
  watch.window = sim::Seconds(1);
  watch.hot_keys = 64;
  watch.watchers = 128;
  watch.rw_limit = sim::Millis(200);
  watch.primary = OpKind::kRw;
  specs.push_back(watch);

  return specs;
}

/// The simulated machine every workload runs on.
core::SystemConfig MakeConfig(const Spec& spec) {
  core::SystemConfig config;
  // Topology: 5 clusters of 3f+1 = 7 replicas.
  config.num_partitions = kPartitions;
  config.f = 2;
  config.batch_interval = sim::Millis(15);
  config.max_batch_size = 2000;
  config.merkle_depth = spec.merkle_depth;
  config.consensus_kind = spec.consensus;
  config.storage_kind = spec.storage;
  config.durability.wal_group_commit = 8;
  config.durability.checkpoint_interval = 32;
  // Library default, stated so the benchmark never runs the bench-only
  // shared-Merkle shortcut: followers recompute every root, the path the
  // tests exercise.
  config.simulate_shared_merkle = false;

  // The simulated machine: every CostModel field pinned, so a change to
  // the library's defaults cannot move this benchmark. Paper calibration
  // for the batch path and read serving; the remaining rates are today's
  // library defaults.
  core::CostModel& cost = config.cost;
  cost.admit_per_txn = sim::Micros(2);
  cost.validate_per_txn = sim::Micros(6);
  cost.apply_per_txn = sim::Micros(3);
  cost.batch_overhead = sim::Millis(10);
  cost.batch_quadratic_ns = 3.0;
  cost.message_handling = sim::Micros(4);
  cost.ro_serve_per_key = sim::Micros(3);
  cost.signature_op = sim::Micros(25);
  cost.apply_shard_recombine = sim::Micros(15);
  cost.wal_append = sim::Micros(4);
  cost.wal_read = sim::Micros(4);
  cost.disk_fsync = sim::Micros(120);
  cost.page_write = sim::Micros(30);
  cost.page_read = sim::Micros(25);
  return config;
}

/// Everything observed of one op, from its due time on.
struct OpRecord {
  OpKind kind = OpKind::kRo;
  bool done = false;
  bool ok = false;
  bool touches_failover = false;
  uint8_t rounds = 0;
  sim::Time due = 0;
  sim::Time latency = 0;
  sim::Time round1 = 0;
};

/// Replica and client counters at one instant.
struct Snapshot {
  std::vector<core::NodeStats> nodes;
  std::vector<storage::StorageIoStats> io;
  std::vector<BatchId> tails;
  std::vector<uint64_t> views;
  uint64_t client_timeouts = 0;
  uint64_t third_round = 0;
  uint64_t watch_updates = 0;
  uint64_t events = 0;
};

struct RwPlan {
  std::vector<Key> reads;
  std::vector<WriteOp> writes;
  bool touches_failover = false;
};

class Driver {
 public:
  Driver(const Spec& spec, const KeyIndex& keys, uint64_t seed, Probe* probe)
      : spec_(spec),
        keys_(keys),
        seed_(seed),
        probe_(probe),
        w0_(spec.warmup),
        w1_(spec.warmup + spec.window) {}

  RepeatResult Run();

 private:
  struct Arrivals {
    OpKind kind;
    double per_s;
    Rng rng;
    uint64_t issued = 0;
  };
  struct Loop {
    core::Client* client;
    Rng rng;
    uint64_t issued = 0;
  };

  void Build();
  void StartDrivers();
  void ScheduleArrival(Arrivals* a, sim::Time after);
  void IssueOpen(Arrivals* a);
  void IssueClosed(size_t loop);
  void IssueWrite(int writer);
  void IssueRo(core::Client* client, std::vector<Key> keys);
  void IssueRw(core::Client* client, RwPlan plan,
               std::function<void(bool)> then);
  void Complete(size_t index, bool ok, int rounds, sim::Time round1,
                crypto::NodeId client);
  std::vector<Key> RoKeys(Rng* rng) const;
  RwPlan MakeRwPlan(uint64_t slice, uint64_t slices, bool distributed,
                    Rng* rng) const;
  Value RandomValue(Rng* rng) const;
  void Crash();
  void Restart();
  const core::TransEdgeNode* Revived() const {
    return system_->node(kFailoverPartition, kFailoverReplica);
  }
  void AwaitCatchUp(BatchId target);

  Snapshot Take() const;
  void CheckGates(RepeatResult* r);
  void ComputeMetrics(const Snapshot& s0, const Snapshot& s1,
                      RepeatResult* r) const;
  uint64_t Digest() const;

  const Spec& spec_;
  const KeyIndex& keys_;
  const uint64_t seed_;
  Probe* probe_;
  const sim::Time w0_;
  const sim::Time w1_;

  std::vector<std::pair<Key, Value>> preload_;
  std::unique_ptr<core::System> system_;
  std::vector<core::Client*> open_clients_;
  std::vector<Loop> loops_;
  std::vector<core::Client*> writers_;
  std::vector<core::WatchClient*> watchers_;
  std::vector<Arrivals> arrivals_;
  uint64_t next_open_client_ = 0;

  std::vector<OpRecord> ops_;
  uint64_t outstanding_ = 0;
  /// Latest acknowledged value of every key a committed write touched.
  std::unordered_map<Key, Value> ledger_;
  uint64_t mid_watch_updates_ = 0;

  // Failover.
  crypto::NodeId victim_ = 0;
  sim::Time crashed_at_ = 0;
  sim::Time restarted_at_ = 0;
  sim::Time caught_up_at_ = -1;
  double recovery_host_ms_ = 0;
  uint64_t wal_records_replayed_ = 0;
  std::vector<std::string> fault_errors_;
};

RepeatResult Driver::Run() {
  RepeatResult r;
  if (spec_.preload) {
    Rng rng(seed_ ^ 0x1217ULL);
    preload_.reserve(spec_.key_space);
    for (uint64_t i = 0; i < spec_.key_space; ++i) {
      preload_.emplace_back(KeyIndex::KeyName(i), RandomValue(&rng));
    }
  }
  const double setup_start = CpuSeconds();
  Build();
  StartDrivers();
  sim::Environment& env = system_->env();
  const sim::Time mid = w0_ + spec_.window / 2;
  env.ScheduleAt(mid, [this] { mid_watch_updates_ = Take().watch_updates; });
  if (spec_.failover) {
    env.ScheduleAt(w0_ + kFailoverCrashAfter, [this] { Crash(); });
    env.ScheduleAt(w0_ + kFailoverCrashAfter + kFailoverDowntime,
                   [this] { Restart(); });
  }

  env.RunUntil(w0_);
  r.setup_s = CpuSeconds() - setup_start;
  const Snapshot s0 = Take();
  if (probe_ != nullptr) probe_->BeginWindow();
  // The window runs in equal slices, each timed on its own.
  for (int k = 1; k <= kHostSlices; ++k) {
    const double slice_start = CpuSeconds();
    env.RunUntil(w0_ + spec_.window * k / kHostSlices);
    r.slice_host_s.push_back(CpuSeconds() - slice_start);
  }
  if (probe_ != nullptr) probe_->EndWindow();
  const Snapshot s1 = Take();

  // Generators stop issuing at w1; let the window's ops resolve, then
  // give watchers a moment for the last deltas.
  while (outstanding_ > 0 && env.now() < w1_ + kDrainLimit) {
    env.RunUntil(env.now() + sim::Millis(50));
  }
  env.RunUntil(env.now() + sim::Millis(100));

  ComputeMetrics(s0, s1, &r);
  CheckGates(&r);
  r.digest = Digest();
  return r;
}

void Driver::Build() {
  const core::SystemConfig config = MakeConfig(spec_);
  sim::EnvironmentOptions env_opts;
  env_opts.seed = seed_;
  env_opts.intra_site_latency = sim::Micros(300);
  env_opts.inter_site_latency = sim::Millis(1);
  env_opts.latency_jitter = sim::Micros(150);
  system_ = std::make_unique<core::System>(config, env_opts);
  if (spec_.preload) {
    system_->Preload(core::System::BuildPreloadState(
        config.num_partitions, config.merkle_depth, preload_));
  }

  std::vector<core::Client*> all_clients;
  if (spec_.ro_per_s > 0 || spec_.rw_per_s > 0) {
    for (int i = 0; i < kOpenClients; ++i) {
      open_clients_.push_back(system_->AddClient());
    }
  }
  for (int c = 0; c < spec_.closed_clients; ++c) {
    core::Client* client = system_->AddClient();
    for (int d = 0; d < spec_.closed_depth; ++d) {
      const uint64_t loop = loops_.size();
      loops_.push_back(
          Loop{client, Rng(seed_ * 0x9e3779b97f4a7c15ULL + loop)});
    }
    all_clients.push_back(client);
  }
  for (int k = 0; k < spec_.hot_keys; ++k) {
    writers_.push_back(system_->AddClient());
  }
  for (int w = 0; w < spec_.watchers; ++w) {
    watchers_.push_back(system_->AddWatchClient());
  }
  all_clients.insert(all_clients.end(), open_clients_.begin(),
                     open_clients_.end());
  all_clients.insert(all_clients.end(), writers_.begin(), writers_.end());
  if (probe_ != nullptr) probe_->Attach(system_.get(), all_clients, watchers_);

  system_->Start();
  system_->env().RunUntil(kGenesis);
}

void Driver::StartDrivers() {
  sim::Environment& env = system_->env();
  if (spec_.ro_per_s > 0) {
    arrivals_.push_back(Arrivals{OpKind::kRo, spec_.ro_per_s,
                                 Rng(seed_ ^ 0x5eed0001ULL)});
  }
  if (spec_.rw_per_s > 0) {
    arrivals_.push_back(Arrivals{OpKind::kRw, spec_.rw_per_s,
                                 Rng(seed_ ^ 0x5eed0002ULL)});
  }
  // arrivals_ no longer grows: pointers into it stay valid.
  for (Arrivals& a : arrivals_) ScheduleArrival(&a, kDriversStart);

  for (size_t loop = 0; loop < loops_.size(); ++loop) {
    // Stagger loop starts over 5 ms so the first batch is not one burst.
    const sim::Time offset = static_cast<sim::Time>(
        loops_[loop].rng.NextBounded(sim::Millis(5)));
    env.ScheduleAt(kDriversStart + offset, [this, loop] { IssueClosed(loop); });
  }
  for (int k = 0; k < spec_.hot_keys; ++k) {
    env.ScheduleAt(kDriversStart, [this, k] { IssueWrite(k); });
  }
  if (!watchers_.empty()) {
    const Key lo = KeyIndex::KeyName(0);
    const Key hi = KeyIndex::KeyName(static_cast<uint64_t>(spec_.hot_keys) - 1);
    for (size_t i = 0; i < watchers_.size(); ++i) {
      core::WatchClient* wc = watchers_[i];
      // Staggered so the seed burst does not land on one instant.
      env.ScheduleAt(kDriversStart + sim::Micros(50) * static_cast<int64_t>(i),
                     [wc, lo, hi] { wc->Watch(lo, hi); });
    }
  }
}

void Driver::ScheduleArrival(Arrivals* a, sim::Time after) {
  // Poisson arrivals: exponential gaps at the class's rate.
  const double gap_us = -std::log(1.0 - a->rng.NextDouble()) / a->per_s * 1e6;
  const sim::Time due = after + static_cast<sim::Time>(gap_us);
  if (due >= w1_) return;
  // Issued exactly at its due time (a simulated generator is never
  // late), so an op's latency counts from its due time.
  system_->env().ScheduleAt(due, [this, a, due] {
    IssueOpen(a);
    ScheduleArrival(a, due);
  });
}

void Driver::IssueOpen(Arrivals* a) {
  core::Client* client =
      open_clients_[next_open_client_++ % open_clients_.size()];
  const uint64_t seq = a->issued++;
  if (a->kind == OpKind::kRo) {
    IssueRo(client, RoKeys(&a->rng));
    return;
  }
  const bool distributed = a->rng.NextBernoulli(spec_.rw_dist_share);
  IssueRw(client, MakeRwPlan(seq % kOpenSlices, kOpenSlices, distributed,
                             &a->rng),
          nullptr);
}

void Driver::IssueClosed(size_t loop) {
  if (system_->env().now() >= w1_) return;
  Loop& l = loops_[loop];
  const bool distributed = l.rng.NextBernoulli(spec_.rw_dist_share);
  // Loops own disjoint slices of the key space: they never conflict.
  const uint64_t slice = loop + loops_.size() * (l.issued++ % kLoopSlices);
  RwPlan plan = MakeRwPlan(slice, loops_.size() * kLoopSlices, distributed,
                           &l.rng);
  IssueRw(l.client, std::move(plan), [this, loop](bool) {
    const sim::Time think =
        static_cast<sim::Time>(loops_[loop].rng.NextBounded(kThinkTime));
    system_->env().Schedule(think, [this, loop] { IssueClosed(loop); });
  });
}

void Driver::IssueWrite(int writer) {
  if (system_->env().now() >= w1_) return;
  RwPlan plan;
  const Key key = KeyIndex::KeyName(static_cast<uint64_t>(writer));
  storage::PartitionMap pmap(kPartitions);
  plan.touches_failover = pmap.OwnerOf(key) == kFailoverPartition;
  // Each writer owns one hot key; the value is fresh per write.
  Value value = ToBytes("w" + std::to_string(writer) + "-" +
                        std::to_string(ops_.size()));
  plan.writes.push_back(WriteOp{key, std::move(value)});
  IssueRw(writers_[static_cast<size_t>(writer)], std::move(plan),
          [this, writer](bool) { IssueWrite(writer); });
}

void Driver::IssueRo(core::Client* client, std::vector<Key> keys) {
  const size_t index = ops_.size();
  OpRecord rec;
  rec.kind = OpKind::kRo;
  rec.due = system_->env().now();
  rec.touches_failover = true;  // One key on every partition.
  ops_.push_back(rec);
  ++outstanding_;
  const crypto::NodeId id = client->id();
  client->ExecuteReadOnly(std::move(keys), [this, index, id](core::RoResult r) {
    Complete(index, r.status.ok(), r.rounds, r.round1_latency, id);
  });
}

void Driver::IssueRw(core::Client* client, RwPlan plan,
                     std::function<void(bool)> then) {
  const size_t index = ops_.size();
  OpRecord rec;
  rec.kind = OpKind::kRw;
  rec.due = system_->env().now();
  rec.touches_failover = plan.touches_failover;
  ops_.push_back(rec);
  ++outstanding_;
  const crypto::NodeId id = client->id();
  std::vector<WriteOp> writes = plan.writes;
  client->ExecuteReadWrite(
      std::move(plan.reads), std::move(plan.writes),
      [this, index, id, writes = std::move(writes),
       then = std::move(then)](core::RwResult r) {
        Complete(index, r.committed, 1, 0, id);
        if (r.committed) {
          for (const WriteOp& w : writes) ledger_[w.key] = w.value;
        }
        if (then) then(r.committed);
      });
}

void Driver::Complete(size_t index, bool ok, int rounds, sim::Time round1,
                      crypto::NodeId client) {
  OpRecord& rec = ops_[index];
  if (rec.done) return;
  rec.done = true;
  rec.ok = ok;
  rec.rounds = static_cast<uint8_t>(rounds);
  rec.round1 = round1;
  rec.latency = system_->env().now() - rec.due;
  --outstanding_;
  if (probe_ != nullptr) {
    probe_->OpSpan(client, rec.kind, rec.due, system_->env().now());
  }
}

std::vector<Key> Driver::RoKeys(Rng* rng) const {
  std::vector<Key> keys;
  keys.reserve(kPartitions);
  for (PartitionId p = 0; p < kPartitions; ++p) {
    const std::vector<uint32_t>& owned = keys_.owned(p);
    keys.push_back(KeyIndex::KeyName(owned[rng->NextBounded(owned.size())]));
  }
  return keys;
}

RwPlan Driver::MakeRwPlan(uint64_t slice, uint64_t slices, bool distributed,
                          Rng* rng) const {
  std::vector<PartitionId> parts;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    // A replica restarted from disk cannot replay commit records of
    // transactions prepared before its crash (see README), so the
    // failover partition takes local writes only.
    if (distributed && spec_.failover && p == kFailoverPartition) continue;
    parts.push_back(p);
  }
  rng->Shuffle(&parts);
  parts.resize(distributed ? kDistParts : 1);

  RwPlan plan;
  std::set<uint32_t> used;
  auto pick = [&](PartitionId p) {
    // Keys j of the partition with j % slices == slice.
    const std::vector<uint32_t>& owned = keys_.owned(p);
    const uint64_t n = (owned.size() - slice + slices - 1) / slices;
    uint32_t index = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      index = owned[slice + slices * rng->NextBounded(n)];
      if (used.insert(index).second) break;
    }
    return KeyIndex::KeyName(index);
  };
  for (int i = 0; i < kRwReads + kRwWrites; ++i) {
    const PartitionId p = parts[static_cast<size_t>(i) % parts.size()];
    if (p == kFailoverPartition) plan.touches_failover = true;
    if (i < kRwReads) {
      plan.reads.push_back(pick(p));
    } else {
      plan.writes.push_back(WriteOp{pick(p), RandomValue(rng)});
    }
  }
  return plan;
}

Value Driver::RandomValue(Rng* rng) const {
  Value value(kValueSize);
  for (uint8_t& b : value) b = static_cast<uint8_t>(rng->Next());
  return value;
}

void Driver::Crash() {
  // A follower: the cluster keeps its 2f+1 quorum, so clients see no
  // outage, while the victim exercises WAL, checkpoint, recovery and
  // catch-up. (A leader crash makes reads fail: see README.)
  victim_ =
      system_->config().ReplicaNode(kFailoverPartition, kFailoverReplica);
  crashed_at_ = system_->env().now();
  system_->CrashReplica(victim_);
  // Power loss: nothing the disk had not synced survives.
  system_->disk(victim_)->Crash(0, storage::paged::SimDisk::CrashMode::kNone);
}

void Driver::Restart() {
  restarted_at_ = system_->env().now();
  const double start = CpuSeconds();
  Status s = system_->RestartReplica(victim_);
  recovery_host_ms_ = (CpuSeconds() - start) * 1e3;
  if (!s.ok()) {
    fault_errors_.push_back("restart failed: " + s.ToString());
    return;
  }
  if (probe_ != nullptr) probe_->Rewrap(victim_);
  wal_records_replayed_ =
      Revived()->backend().io_stats().wal_records_replayed;
  AwaitCatchUp(system_->leader(kFailoverPartition)->log().LastBatchId());
}

void Driver::AwaitCatchUp(BatchId target) {
  if (Revived()->last_applied() >= target) {
    caught_up_at_ = system_->env().now();
    return;
  }
  system_->env().Schedule(sim::Millis(1),
                          [this, target] { AwaitCatchUp(target); });
}

Snapshot Driver::Take() const {
  Snapshot s;
  const core::SystemConfig& config = system_->config();
  for (crypto::NodeId id = 0; id < config.total_replicas(); ++id) {
    const core::TransEdgeNode* n = system_->node(
        config.PartitionOfNode(id), config.ReplicaIndexOf(id));
    s.nodes.push_back(n->stats());
    s.io.push_back(n->backend().io_stats());
    s.tails.push_back(n->log().LastBatchId());
    s.views.push_back(n->view());
  }
  auto add_client = [&s](const core::Client* c) {
    s.client_timeouts += c->stats().timeouts;
    s.third_round += c->stats().ro_third_round_would_be_needed;
  };
  for (const core::Client* c : open_clients_) add_client(c);
  for (const Loop& l : loops_) add_client(l.client);
  for (const core::Client* c : writers_) add_client(c);
  for (const core::WatchClient* w : watchers_) {
    s.watch_updates += w->stats().keys_updated;
  }
  s.events = system_->env().queue().events_executed();
  return s;
}

/// Latencies of the ops selected by `keep`.
workload::LatencyStats Latencies(
    const std::vector<OpRecord>& ops,
    const std::function<bool(const OpRecord&)>& keep) {
  workload::LatencyStats stats;
  for (const OpRecord& op : ops) {
    if (keep(op)) stats.Record(op.latency);
  }
  return stats;
}

void Driver::ComputeMetrics(const Snapshot& s0, const Snapshot& s1,
                            RepeatResult* r) const {
  const double window_s = sim::ToSeconds(spec_.window);
  const sim::Time mid = w0_ + spec_.window / 2;
  Metrics& m = r->sim;
  auto limit = [this](OpKind k) {
    return k == OpKind::kRo ? spec_.ro_limit : spec_.rw_limit;
  };

  // Ops due in [from, to): attempted, successes, within-limit successes.
  struct Window {
    uint64_t attempted = 0, ok = 0, in_slo = 0;
    workload::LatencyStats primary;
  };
  auto summarize = [&](sim::Time from, sim::Time to) {
    Window w;
    for (const OpRecord& op : ops_) {
      if (op.due < from || op.due >= to) continue;
      ++w.attempted;
      if (!op.done || !op.ok) continue;
      ++w.ok;
      if (op.latency <= limit(op.kind)) ++w.in_slo;
      if (op.kind == spec_.primary) w.primary.Record(op.latency);
    }
    return w;
  };
  const bool watch_tput = !watchers_.empty();
  auto add_window = [&](const std::string& suffix, const Window& w,
                        double seconds, uint64_t watch_updates) {
    m["p50_ms" + suffix] = {w.primary.P50Ms(), "ms"};
    m["p99_ms" + suffix] = {w.primary.P99Ms(), "ms"};
    m["tput_per_s" + suffix] = {
        static_cast<double>(watch_tput ? watch_updates : w.primary.count()) /
            seconds,
        "1/s"};
    m["slo_pct" + suffix] = {
        w.attempted == 0 ? 0.0
                         : 100.0 * static_cast<double>(w.in_slo) /
                               static_cast<double>(w.attempted),
        "%"};
  };
  const Window all = summarize(w0_, w1_);
  add_window("", all, window_s, s1.watch_updates - s0.watch_updates);
  add_window(".h1", summarize(w0_, mid), window_s / 2,
             mid_watch_updates_ - s0.watch_updates);
  add_window(".h2", summarize(mid, w1_), window_s / 2,
             s1.watch_updates - mid_watch_updates_);
  m["primary_samples"] = {static_cast<double>(all.primary.count()), "count"};
  r->attempted = all.attempted;
  r->failed = all.attempted - all.ok;
  if (all.primary.count() < kMinPercentileSamples) {
    r->violations.push_back("p99 of the primary op rests on " +
                            std::to_string(all.primary.count()) +
                            " samples (< 1000)");
  }

  // The per-class end-to-end metrics.
  auto in_window_ok = [this](OpKind kind) {
    return [this, kind](const OpRecord& op) {
      return op.kind == kind && op.done && op.ok && op.due >= w0_ &&
             op.due < w1_;
    };
  };
  const workload::LatencyStats ro = Latencies(ops_, in_window_ok(OpKind::kRo));
  const workload::LatencyStats rw = Latencies(ops_, in_window_ok(OpKind::kRw));
  m["ro_p50_ms"] = {ro.P50Ms(), "ms"};
  m["ro_p99_ms"] = {ro.P99Ms(), "ms"};
  m["ro_samples"] = {static_cast<double>(ro.count()), "count"};
  m["ro_tps"] = {static_cast<double>(ro.count()) / window_s, "1/s"};
  m["rw_p50_ms"] = {rw.P50Ms(), "ms"};
  m["rw_p99_ms"] = {rw.P99Ms(), "ms"};
  m["rw_samples"] = {static_cast<double>(rw.count()), "count"};
  m["rw_tps"] = {static_cast<double>(rw.count()) / window_s, "1/s"};
  m["fail_pct"] = {all.attempted == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(r->failed) /
                             static_cast<double>(all.attempted),
                   "%"};
  m["watch_updates_per_s"] = {
      static_cast<double>(s1.watch_updates - s0.watch_updates) / window_s,
      "1/s"};

  uint64_t two_round = 0;
  workload::LatencyStats round1, round2_extra;
  for (const OpRecord& op : ops_) {
    if (!in_window_ok(OpKind::kRo)(op)) continue;
    round1.Record(op.round1);
    if (op.rounds > 1) {
      ++two_round;
      round2_extra.Record(op.latency - op.round1);
    }
  }
  m["ro.two_round_pct"] = {
      ro.empty() ? 0.0
                 : 100.0 * static_cast<double>(two_round) /
                       static_cast<double>(ro.count()),
      "%"};
  m["ro.round1_p50_ms"] = {round1.P50Ms(), "ms"};
  m["ro.round2_extra_p50_ms"] = {round2_extra.P50Ms(), "ms"};

  // Failover: time from the crash to the first success of an op issued
  // after it that touches partition 0 (capped at the window's end).
  double unavail_ms = 0;
  if (spec_.failover) {
    sim::Time first = w1_;
    for (const OpRecord& op : ops_) {
      if (op.due >= crashed_at_ && op.touches_failover && op.done && op.ok) {
        first = std::min(first, op.due + op.latency);
      }
    }
    unavail_ms = sim::ToMillis(std::min(first, w1_) - crashed_at_);
  }
  m["client.unavail_ms"] = {unavail_ms, "ms"};

  // Counters. The failover victim's node object is replaced mid-window,
  // so replica sums skip it (it is a follower: no client-facing work).
  const core::SystemConfig& config = system_->config();
  auto skip = [this](crypto::NodeId id) {
    return spec_.failover && id == victim_;
  };
  auto sum = [&](auto field) {
    uint64_t total = 0;
    for (crypto::NodeId id = 0; id < config.total_replicas(); ++id) {
      if (!skip(id)) total += field(s1, id) - field(s0, id);
    }
    return static_cast<double>(total);
  };
  auto node = [](auto member) {
    return [member](const Snapshot& s, crypto::NodeId id) {
      return s.nodes[id].*member;
    };
  };
  auto io = [](auto member) {
    return [member](const Snapshot& s, crypto::NodeId id) {
      return s.io[id].*member;
    };
  };
  double batches = 0;
  double views = 0;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    BatchId t0 = kNoBatch, t1 = kNoBatch;
    uint64_t v0 = 0, v1 = 0;
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const crypto::NodeId id = config.ReplicaNode(p, i);
      t0 = std::max(t0, s0.tails[id]);
      t1 = std::max(t1, s1.tails[id]);
      v0 = std::max(v0, s0.views[id]);
      v1 = std::max(v1, s1.views[id]);
    }
    batches += static_cast<double>(t1 - t0);
    views += static_cast<double>(v1 - v0);
  }
  auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const double events = static_cast<double>(s1.events - s0.events);
  m["sim.events_per_sim_s"] = {events / window_s, "1/s"};
  m["consensus.batches_per_sim_s"] = {batches / window_s, "1/s"};
  m["consensus.view_changes"] = {views, "count"};
  const double local_ok = sum(node(&core::NodeStats::local_committed));
  const double local_abort = sum(node(&core::NodeStats::local_aborted));
  const double dist_ok = sum(node(&core::NodeStats::dist_committed));
  const double dist_abort = sum(node(&core::NodeStats::dist_aborted));
  m["pipeline.txns_per_batch"] = {ratio(local_ok + dist_ok, batches), "count"};
  m["pipeline.abort_pct"] = {
      100.0 * ratio(local_abort, local_ok + local_abort), "%"};
  m["twopc.abort_pct"] = {100.0 * ratio(dist_abort, dist_ok + dist_abort),
                          "%"};
  m["ro.round2_parked_per_sim_s"] = {
      sum(node(&core::NodeStats::ro_round2_parked)) / window_s, "1/s"};
  m["ro.round2_rejected"] = {sum(node(&core::NodeStats::ro_round2_rejected)),
                             "count"};
  m["ro.round2_aborted"] = {sum(node(&core::NodeStats::ro_round2_aborted)),
                            "count"};
  m["client.timeouts"] = {
      static_cast<double>(s1.client_timeouts - s0.client_timeouts), "count"};
  m["client.third_round_needed"] = {
      static_cast<double>(s1.third_round - s0.third_round), "count"};
  m["watch.deltas_pushed_per_sim_s"] = {
      sum(node(&core::NodeStats::watch_deltas_pushed)) / window_s, "1/s"};
  m["watch.keys_pushed_per_sim_s"] = {
      sum(node(&core::NodeStats::watch_keys_pushed)) / window_s, "1/s"};

  const double applied = sum(node(&core::NodeStats::batches_applied));
  const double wal_bytes = sum(io(&storage::StorageIoStats::wal_bytes));
  const double page_bytes =
      sum(io(&storage::StorageIoStats::page_bytes_written));
  m["storage.wal_syncs_per_batch"] = {
      ratio(sum(io(&storage::StorageIoStats::wal_syncs)), applied), "count"};
  m["storage.wal_bytes_per_batch"] = {ratio(wal_bytes, applied), "B"};
  m["storage.pages_written_per_batch"] = {
      ratio(sum(io(&storage::StorageIoStats::pages_written)), applied),
      "count"};
  m["storage.write_amp"] = {ratio(wal_bytes + page_bytes, wal_bytes), "x"};
  m["storage.wal_records_replayed"] = {
      static_cast<double>(wal_records_replayed_), "count"};
  m["storage.catchup_ms"] = {
      caught_up_at_ < 0 ? 0.0 : sim::ToMillis(caught_up_at_ - restarted_at_),
      "ms"};

  double window_host_s = 0;
  for (double s : r->slice_host_s) window_host_s += s;
  r->host["sim.host_us_per_event"] = {
      events == 0 ? 0.0 : window_host_s * 1e6 / events, "us"};
  r->host["storage.recovery_host_ms"] = {recovery_host_ms_, "ms"};
}

void Driver::CheckGates(RepeatResult* r) {
  std::vector<std::string>& v = r->violations;
  v.insert(v.end(), fault_errors_.begin(), fault_errors_.end());
  const core::SystemConfig& config = system_->config();

  auto all_clients = open_clients_;
  for (const Loop& l : loops_) all_clients.push_back(l.client);
  all_clients.insert(all_clients.end(), writers_.begin(), writers_.end());
  uint64_t ro_verify = 0, third_round = 0;
  for (const core::Client* c : all_clients) {
    ro_verify += c->stats().ro_verification_failures;
    third_round += c->stats().ro_third_round_would_be_needed;
  }
  if (ro_verify > 0) {
    v.push_back(std::to_string(ro_verify) + " read-only verification failures");
  }
  // Beside distributed writes a read may end its second round with a
  // dependency still open (the corner SystemConfig::strict_ro_rounds
  // describes; counted, see README). Without them it never may.
  if (third_round > 0 && spec_.rw_dist_share == 0) {
    v.push_back(std::to_string(third_round) +
                " read-only txns needed a third round");
  }

  // Watch stream integrity, and every watcher's cache equals its
  // partition leader's store over the hot range.
  storage::PartitionMap pmap(kPartitions);
  for (const core::WatchClient* w : watchers_) {
    const core::WatchClient::Stats& st = w->stats();
    if (st.verification_failures + st.gaps_detected + st.duplicates_dropped >
        0) {
      v.push_back("watcher " + std::to_string(w->id()) + ": " +
                  std::to_string(st.verification_failures) +
                  " verification failures, " +
                  std::to_string(st.gaps_detected) + " gaps, " +
                  std::to_string(st.duplicates_dropped) + " duplicates");
      continue;
    }
    for (int k = 0; k < spec_.hot_keys; ++k) {
      const Key key = KeyIndex::KeyName(static_cast<uint64_t>(k));
      auto stored = system_->leader(pmap.OwnerOf(key))->store().Get(key);
      auto cached = w->cache().find(key);
      const bool match =
          stored.ok() ? cached != w->cache().end() && cached->second.found &&
                            cached->second.value == stored->value &&
                            cached->second.version == stored->version
                      : cached == w->cache().end() || !cached->second.found;
      if (!match) {
        v.push_back("watcher " + std::to_string(w->id()) +
                    " cache differs from the store at " + key);
        break;
      }
    }
  }

  // Live replicas of a partition agree on the certified root at their
  // lowest common applied batch, and each one's applied tree hashes to
  // the certified root of the batch it last applied.
  for (PartitionId p = 0; p < kPartitions; ++p) {
    std::vector<const core::TransEdgeNode*> live;
    BatchId common = -1;
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const core::TransEdgeNode* n = system_->node(p, i);
      if (n->halted()) continue;
      common = live.empty() ? n->last_applied()
                            : std::min(common, n->last_applied());
      live.push_back(n);
    }
    const crypto::Digest* reference = nullptr;
    for (const core::TransEdgeNode* n : live) {
      auto at_common = n->log().Get(common);
      auto at_applied = n->log().Get(n->last_applied());
      if (!at_common.ok() || !at_applied.ok()) {
        v.push_back("partition " + std::to_string(p) + " replica " +
                    std::to_string(n->id()) + " lacks log entry " +
                    std::to_string(common));
        continue;
      }
      if (!(n->tree().RootDigest() ==
            at_applied.value()->certificate.merkle_root)) {
        v.push_back("replica " + std::to_string(n->id()) +
                    " tree does not hash to its certified root");
      }
      const crypto::Digest& root = at_common.value()->certificate.merkle_root;
      if (reference == nullptr) {
        reference = &root;
      } else if (!(root == *reference)) {
        v.push_back("partition " + std::to_string(p) +
                    " replicas disagree on the root of batch " +
                    std::to_string(common));
      }
    }
  }

  // Every acknowledged write is readable: the latest acknowledged value
  // of each key is what its leader (and the revived replica) stores.
  size_t lost = 0;
  for (const auto& [key, value] : ledger_) {
    const PartitionId p = pmap.OwnerOf(key);
    std::vector<const core::TransEdgeNode*> holders = {system_->leader(p)};
    if (spec_.failover && p == kFailoverPartition) holders.push_back(Revived());
    for (const core::TransEdgeNode* n : holders) {
      auto stored = n->store().Get(key);
      if (!stored.ok() || stored->value != value) ++lost;
    }
  }
  if (lost > 0) {
    v.push_back(std::to_string(lost) + " acknowledged writes not readable");
  }

  if (spec_.failover && caught_up_at_ < 0) {
    v.push_back("revived replica never caught up with the leader");
  }
}

uint64_t Driver::Digest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const OpRecord& op : ops_) {
    mix(static_cast<uint64_t>(op.kind) | (op.done ? 2 : 0) | (op.ok ? 4 : 0) |
        (static_cast<uint64_t>(op.rounds) << 8));
    mix(static_cast<uint64_t>(op.due));
    mix(static_cast<uint64_t>(op.latency));
  }
  const core::SystemConfig& config = system_->config();
  for (crypto::NodeId id = 0; id < config.total_replicas(); ++id) {
    const core::TransEdgeNode* n =
        system_->node(config.PartitionOfNode(id), config.ReplicaIndexOf(id));
    mix(static_cast<uint64_t>(n->last_applied()));
    for (uint8_t b : n->tree().RootDigest().bytes) mix(b);
  }
  return h;
}

}  // namespace

const std::vector<Spec>& AllSpecs() {
  static const std::vector<Spec> specs = MakeSpecs();
  return specs;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : AllSpecs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Key KeyIndex::KeyName(uint64_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%010llu",
                static_cast<unsigned long long>(index));
  return buf;
}

KeyIndex::KeyIndex(const Spec& spec) : by_partition_(kPartitions) {
  storage::PartitionMap pmap(kPartitions);
  for (uint64_t i = 0; i < spec.key_space; ++i) {
    by_partition_[pmap.OwnerOf(KeyName(i))].push_back(
        static_cast<uint32_t>(i));
  }
}

RepeatResult RunOnce(const Spec& spec, const KeyIndex& keys, uint64_t seed,
                     Probe* probe) {
  Driver driver(spec, keys, seed, probe);
  return driver.Run();
}

}  // namespace transedge::e2e
