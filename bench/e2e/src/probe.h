#ifndef TRANSEDGE_BENCH_E2E_PROBE_H_
#define TRANSEDGE_BENCH_E2E_PROBE_H_

// The traced run's observer. It measures each layer from outside, through
// public calls only:
//   - every replica, client and watch client is re-registered behind a
//     forwarding actor that times each OnMessage call by (role, message
//     type) and reads the replica's stats() around it to spot a decide;
//   - a pass-through link filter counts messages and encoded bytes per
//     class and stamps the send times the stage timings use.
// Neither touches the simulator's random numbers or drops anything, so
// the traced run's simulated results equal the untraced run's exactly.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/system.h"
#include "workload.h"
#include "workload/stats.h"

namespace transedge::e2e {

class Probe {
 public:
  /// `chrome` keeps sampled spans for WriteChromeTrace.
  explicit Probe(bool chrome);
  ~Probe();

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Wraps every replica of `system`, and the given clients and watch
  /// clients, and installs the link filter. Call before System::Start.
  /// The probe must outlive the system: messages in flight hold the
  /// wrappers.
  void Attach(core::System* system, const std::vector<core::Client*>& clients,
              const std::vector<core::WatchClient*>& watchers);

  /// Re-wraps replica `id` after System::RestartReplica registered its
  /// successor.
  void Rewrap(crypto::NodeId id);

  /// Accounting covers [BeginWindow, EndWindow) only.
  void BeginWindow();
  void EndWindow();

  /// A finished client operation, for the Chrome trace (sampled).
  void OpSpan(crypto::NodeId client, OpKind kind, sim::Time start,
              sim::Time end);

  /// The traced per-layer metrics of the last window.
  Metrics Layers(double window_sim_s) const;

  /// Chrome trace-event JSON: simulated-time spans (ops, batches) under
  /// one process, host-time handler spans under another, one track per
  /// actor each.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  enum class Role : uint8_t { kReplica, kClient, kWatcher };
  static constexpr int kRoles = 3;
  static constexpr int kTypes = 128;

  class Wrapper;
  struct Cost {
    uint64_t calls = 0;
    int64_t ns = 0;
  };
  struct ChromeEvent {
    const char* name;
    int pid;
    uint32_t tid;
    double ts_us;
    double dur_us;
  };
  enum WireClass { kClientWire, kRoWire, kConsensusWire, kTwoPcWire,
                   kWatchWire, kOtherWire, kWireClasses };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static WireClass ClassOf(uint32_t type);

  void Wrap(crypto::NodeId id, sim::Actor* target, Role role,
            const core::TransEdgeNode* node, std::string track);
  bool OnSend(sim::ActorId from, const sim::MessagePtr& msg);
  /// Wrapper callbacks around one delivery.
  void BeforeDeliver(const core::TransEdgeNode* node, const sim::Message& msg);
  void AfterDeliver(Role role, crypto::NodeId id,
                    const core::TransEdgeNode* node, uint32_t type,
                    int64_t start_ns, int64_t net_ns, BatchId tail_before,
                    uint64_t decided_before);
  void AddEvent(const char* name, int pid, uint32_t tid, double ts_us,
                double dur_us);

  bool chrome_;
  core::System* system_ = nullptr;
  std::vector<std::unique_ptr<Wrapper>> wrappers_;
  bool measuring_ = false;
  int64_t window_start_ns_ = 0;
  int64_t window_wall_ns_ = 0;

  // Host time by (receiver role, message type); calls that advanced a
  // replica's decided count are charged to decide_ instead.
  Cost cost_[kRoles][kTypes];
  Cost decide_;
  uint64_t decided_batches_ = 0;
  /// Batches decided by partition leaders (one per partition and batch).
  uint64_t leader_decides_ = 0;
  int64_t handler_ns_ = 0;
  /// Host time the probe itself spent in the link filter (encoding);
  /// subtracted from the handler it ran inside.
  int64_t overhead_ns_ = 0;

  uint64_t wire_msgs_[kWireClasses] = {};
  uint64_t wire_bytes_[kWireClasses] = {};
  /// Held (not just compared by address) so a freed message's address
  /// can never alias the next one.
  sim::MessagePtr last_encoded_;
  size_t last_size_ = 0;

  // Stage stamps (simulated send/arrival times).
  std::map<std::pair<PartitionId, BatchId>, sim::Time> proposed_at_;
  std::map<std::pair<PartitionId, TxnId>, sim::Time> admitted_at_;
  std::unordered_map<TxnId, sim::Time> coord_prepare_at_;
  workload::LatencyStats propose_to_decide_;
  workload::LatencyStats batch_wait_;
  workload::LatencyStats prepare_to_record_;

  uint64_t sample_tick_ = 0;
  uint64_t op_tick_ = 0;
  std::vector<ChromeEvent> events_;
  std::map<uint32_t, std::string> track_names_;
};

}  // namespace transedge::e2e

#endif  // TRANSEDGE_BENCH_E2E_PROBE_H_
