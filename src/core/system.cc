#include "core/system.h"

#include <cassert>

#include "storage/partition_map.h"

namespace transedge::core {

namespace {
/// Principal-id space: replicas first, then up to this many clients.
constexpr uint32_t kMaxClients = 4096;
}  // namespace

System::System(const SystemConfig& config,
               const sim::EnvironmentOptions& env_opts)
    : config_(config),
      env_(env_opts),
      scheme_(config.total_replicas() + kMaxClients, env_opts.seed ^ 0x5ed) {
  const bool paged = config_.storage_kind == storage::StorageKind::kPaged;
  if (paged) disks_.resize(config_.total_replicas());
  nodes_.reserve(config_.total_replicas());
  for (uint32_t id = 0; id < config_.total_replicas(); ++id) {
    if (paged) disks_[id] = std::make_unique<storage::paged::SimDisk>();
    auto node = std::make_unique<TransEdgeNode>(
        config_, id, &env_, scheme_.MakeSigner(id), &scheme_.verifier(),
        paged ? disks_[id].get() : nullptr);
    // Replicas of partition p are co-located at site p.
    env_.network().Register(id, config_.PartitionOfNode(id), node.get());
    nodes_.push_back(std::move(node));
  }
}

System::PreloadState System::BuildPreloadState(
    uint32_t num_partitions, int merkle_depth,
    const std::vector<std::pair<Key, Value>>& data) {
  storage::PartitionMap pmap(num_partitions);
  PreloadState state;
  state.stores.resize(num_partitions);
  state.trees.reserve(num_partitions);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    state.trees.emplace_back(merkle_depth);
  }
  for (const auto& [key, value] : data) {
    PartitionId p = pmap.OwnerOf(key);
    state.stores[p].Put(key, value, 0);
    state.trees[p].Put(key, value, 0);
  }
  return state;
}

void System::Preload(const std::vector<std::pair<Key, Value>>& data) {
  Preload(BuildPreloadState(config_.num_partitions, config_.merkle_depth,
                            data));
}

void System::Preload(const PreloadState& state) {
  assert(!started_);
  assert(state.stores.size() == config_.num_partitions);
  // Share the per-partition state with every replica of that cluster:
  // the replicas would arrive at identical state anyway, and the Merkle
  // tree is persistent, so structural sharing is safe.
  for (PartitionId p = 0; p < config_.num_partitions; ++p) {
    for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
      nodes_[config_.ReplicaNode(p, i)]->Preload(state.stores[p],
                                                 state.trees[p]);
    }
  }
}

void System::Start() {
  assert(!started_);
  started_ = true;
  for (auto& node : nodes_) {
    TransEdgeNode* raw = node.get();
    env_.ScheduleAt(0, [raw] { raw->OnStart(); });
  }
}

Client* System::AddClient() {
  uint32_t index = next_client_index_++;
  assert(index < kMaxClients);
  crypto::NodeId id = config_.ClientNode(index);
  auto client =
      std::make_unique<Client>(config_, id, &env_, &scheme_.verifier());
  // Clients are co-located with a home cluster, round-robin — the
  // paper's clients sit at the edge next to their nearest cluster.
  env_.network().Register(id, index % config_.num_partitions, client.get());
  clients_.push_back(std::move(client));
  return clients_.back().get();
}

WatchClient* System::AddWatchClient() {
  uint32_t index = next_client_index_++;
  assert(index < kMaxClients);
  crypto::NodeId id = config_.ClientNode(index);
  auto client =
      std::make_unique<WatchClient>(config_, id, &env_, &scheme_.verifier());
  env_.network().Register(id, index % config_.num_partitions, client.get());
  watch_clients_.push_back(std::move(client));
  return watch_clients_.back().get();
}

void System::CrashReplica(crypto::NodeId id) {
  assert(id < nodes_.size());
  nodes_[id]->Halt();
  env_.network().Disconnect(id);
}

storage::RecoverOptions System::RecoverOptionsFor(crypto::NodeId id) const {
  storage::RecoverOptions opts;
  opts.verifier = &scheme_.verifier();
  opts.member_ids = config_.ClusterMembers(config_.PartitionOfNode(id));
  opts.required_signatures = config_.certificate_size();
  return opts;
}

Status System::RestartReplica(crypto::NodeId id) {
  assert(id < nodes_.size());
  if (config_.storage_kind != storage::StorageKind::kPaged) {
    return Status::FailedPrecondition(
        "RestartReplica requires a durable storage backend");
  }
  // Make sure the predecessor is fully out of the way even if the test
  // skipped CrashReplica.
  nodes_[id]->Halt();

  auto fresh = std::make_unique<TransEdgeNode>(
      config_, id, &env_, scheme_.MakeSigner(id), &scheme_.verifier(),
      disks_[id].get());
  Status recovered = fresh->RecoverFromStorage(RecoverOptionsFor(id));
  if (!recovered.ok()) return recovered;

  // Successor takes over the actor id (Register overwrites) and rejoins
  // the network; the halted predecessor is parked, not destroyed, since
  // scheduled closures may still capture it.
  graveyard_.push_back(std::move(nodes_[id]));
  env_.network().Register(id, config_.PartitionOfNode(id), fresh.get());
  env_.network().Reconnect(id);
  nodes_[id] = std::move(fresh);
  TransEdgeNode* raw = nodes_[id].get();
  env_.ScheduleAt(env_.now(), [raw] { raw->OnStart(); });
  return Status::OK();
}

TransEdgeNode* System::leader(PartitionId p) {
  for (uint32_t i = 0; i < config_.replicas_per_cluster(); ++i) {
    TransEdgeNode* n = node(p, i);
    if (n->IsLeader()) return n;
  }
  return node(p, 0);
}

uint64_t System::TotalRwAbortedByRoLocks() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->stats().rw_aborted_by_ro_locks;
  }
  return total;
}

uint64_t System::TotalBatches() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->stats().batches_decided;
  return total;
}

}  // namespace transedge::core
