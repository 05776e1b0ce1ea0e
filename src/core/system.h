#ifndef TRANSEDGE_CORE_SYSTEM_H_
#define TRANSEDGE_CORE_SYSTEM_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/config.h"
#include "core/node.h"
#include "core/watch_client.h"
#include "crypto/signer.h"
#include "sim/environment.h"
#include "storage/paged/sim_disk.h"

namespace transedge::core {

/// Builds and owns a whole simulated TransEdge deployment: the event
/// queue and network, the signature scheme, `num_partitions` clusters of
/// `3f+1` replicas each, and any number of clients.
///
///     SystemConfig config;                 // 5 clusters x 7 replicas
///     sim::EnvironmentOptions env_opts;
///     System system(config, env_opts);
///     system.Preload(data);                // identical state everywhere
///     system.Start();                      // genesis batches certify it
///     Client* client = system.AddClient();
///     client->ExecuteReadOnly(keys, [&](RoResult r) { ... });
///     system.env().RunUntil(sim::Seconds(10));
class System {
 public:
  System(const SystemConfig& config, const sim::EnvironmentOptions& env_opts);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Pre-built initial state, one (store, tree) per partition. Building
  /// it is the expensive part of Preload; benches cache it across runs.
  struct PreloadState {
    std::vector<storage::VersionedStore> stores;
    std::vector<merkle::MerkleTree> trees;
  };

  static PreloadState BuildPreloadState(
      uint32_t num_partitions, int merkle_depth,
      const std::vector<std::pair<Key, Value>>& data);

  /// Installs `data` as the initial database state on every replica.
  /// Must be called before Start().
  void Preload(const std::vector<std::pair<Key, Value>>& data);

  /// Same, from a pre-built (possibly cached) state. The state's
  /// geometry must match this system's configuration.
  void Preload(const PreloadState& state);

  /// Starts all replica actors (leaders immediately certify a genesis
  /// batch covering the preloaded state).
  void Start();

  /// Creates a client co-located with cluster `home % num_partitions`.
  Client* AddClient();

  /// Creates a watch client (subscription-tier subscriber). Watch
  /// clients share the regular clients' node-id space.
  WatchClient* AddWatchClient();

  TransEdgeNode* node(PartitionId p, uint32_t replica_index) {
    return nodes_[config_.ReplicaNode(p, replica_index)].get();
  }
  const TransEdgeNode* node(PartitionId p, uint32_t replica_index) const {
    return nodes_[config_.ReplicaNode(p, replica_index)].get();
  }

  /// The replica currently acting as leader of partition `p` (by its own
  /// view); never null.
  TransEdgeNode* leader(PartitionId p);

  sim::Environment& env() { return env_; }
  const SystemConfig& config() const { return config_; }
  const crypto::Verifier& verifier() const { return scheme_.verifier(); }

  /// Replica `id`'s simulated disk (null under the in-memory backend).
  /// Tests drive fault injection on it directly (Crash modes, CorruptByte)
  /// before calling RestartReplica.
  storage::paged::SimDisk* disk(crypto::NodeId id) {
    return id < disks_.size() ? disks_[id].get() : nullptr;
  }

  /// Crash-stops replica `id`: the node is halted (drops messages, all
  /// of its timers become no-ops) and cut from the network. Its disk is
  /// left exactly as-is — tests choose what the power loss does to the
  /// unsynced write cache via disk(id)->Crash(...).
  void CrashReplica(crypto::NodeId id);

  /// Replaces a crashed replica with a fresh node recovering from the
  /// same disk (checkpoint + WAL replay, certificate-verified). The old
  /// node object is parked in a graveyard (sim closures may still hold
  /// it); the successor takes over the actor id and reconnects. Returns
  /// the recovery status — on failure the replica stays down.
  Status RestartReplica(crypto::NodeId id);

  /// The RecoverOptions a replica of this deployment recovers with
  /// (cluster verifier + membership + certificate quorum).
  storage::RecoverOptions RecoverOptionsFor(crypto::NodeId id) const;

  // Aggregate statistics across all nodes (for benches).
  uint64_t TotalRwAbortedByRoLocks() const;
  uint64_t TotalBatches() const;

 private:
  SystemConfig config_;
  sim::Environment env_;
  crypto::HmacSignatureScheme scheme_;
  /// One disk per replica under StorageKind::kPaged (indexed by node
  /// id; empty under the in-memory backend). Owned here so a disk
  /// outlives crash-restart cycles of the node using it.
  std::vector<std::unique_ptr<storage::paged::SimDisk>> disks_;
  std::vector<std::unique_ptr<TransEdgeNode>> nodes_;
  /// Halted predecessors of restarted replicas: already-scheduled sim
  /// closures may still reference them, so they must live as long as
  /// the environment.
  std::vector<std::unique_ptr<TransEdgeNode>> graveyard_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<WatchClient>> watch_clients_;
  /// Clients and watch clients share one id space (both key server-side
  /// state by globally-unique ids derived from the node id).
  uint32_t next_client_index_ = 0;
  bool started_ = false;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_SYSTEM_H_
