#include "workload/generator.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace transedge::workload {

KeySpace::KeySpace(const WorkloadOptions& options, uint32_t num_partitions)
    : options_(options), by_partition_(num_partitions) {
  storage::PartitionMap pmap(num_partitions);
  keys_.reserve(options.num_keys);
  for (uint64_t i = 0; i < options.num_keys; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k%010llu",
                  static_cast<unsigned long long>(i));
    keys_.emplace_back(buf);
    by_partition_[pmap.OwnerOf(keys_.back())].push_back(
        static_cast<uint32_t>(i));
  }
}

std::vector<std::pair<Key, Value>> KeySpace::InitialData() const {
  Rng rng(options_.seed ^ 0x1217ULL);
  std::vector<std::pair<Key, Value>> data;
  data.reserve(keys_.size());
  for (const Key& key : keys_) {
    Value value(options_.value_size);
    for (uint8_t& b : value) b = static_cast<uint8_t>(rng.Next());
    data.emplace_back(key, std::move(value));
  }
  return data;
}

const Key& KeySpace::RandomKey(Rng* rng) const {
  return keys_[rng->NextBounded(keys_.size())];
}

const Key& KeySpace::RandomKeyIn(PartitionId p, Rng* rng) const {
  const auto& bucket = by_partition_[p];
  return keys_[bucket[rng->NextBounded(bucket.size())]];
}

Value KeySpace::RandomValue(Rng* rng) const {
  Value value(options_.value_size);
  for (uint8_t& b : value) b = static_cast<uint8_t>(rng->Next());
  return value;
}

std::vector<PartitionId> PlanGenerator::PickClusters(int clusters,
                                                     Rng* rng) const {
  int want = std::min<int>(clusters, static_cast<int>(num_partitions_));
  std::vector<PartitionId> all(num_partitions_);
  for (uint32_t i = 0; i < num_partitions_; ++i) all[i] = i;
  rng->Shuffle(&all);
  all.resize(static_cast<size_t>(want));
  return all;
}

TxnPlan PlanGenerator::MakeReadWrite(int reads, int writes, int clusters,
                                     Rng* rng) const {
  TxnPlan plan;
  plan.kind = TxnPlan::Kind::kReadWrite;
  std::vector<PartitionId> parts = PickClusters(clusters, rng);
  std::set<Key> used;
  size_t cursor = 0;
  auto next_key = [&](PartitionId p) {
    // Unique keys within the transaction.
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Key& k = keys_->RandomKeyIn(p, rng);
      if (used.insert(k).second) return k;
    }
    return keys_->RandomKeyIn(p, rng);
  };
  for (int i = 0; i < reads; ++i) {
    PartitionId p = parts[cursor++ % parts.size()];
    plan.read_keys.push_back(next_key(p));
  }
  for (int i = 0; i < writes; ++i) {
    PartitionId p = parts[cursor++ % parts.size()];
    plan.writes.push_back(WriteOp{next_key(p), keys_->RandomValue(rng)});
  }
  return plan;
}

TxnPlan PlanGenerator::MakeSkewedReadWrite(int reads, int writes,
                                           Rng* rng) const {
  TxnPlan plan;
  plan.kind = TxnPlan::Kind::kReadWrite;
  std::vector<PartitionId> parts = PickClusters(writes, rng);
  std::set<Key> used;
  auto next_key = [&](PartitionId p) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Key& k = keys_->RandomKeyIn(p, rng);
      if (used.insert(k).second) return k;
    }
    return keys_->RandomKeyIn(p, rng);
  };
  for (int i = 0; i < writes; ++i) {
    PartitionId p = parts[static_cast<size_t>(i) % parts.size()];
    plan.writes.push_back(WriteOp{next_key(p), keys_->RandomValue(rng)});
  }
  for (int i = 0; i < reads; ++i) {
    PartitionId p = parts[static_cast<size_t>(i) % parts.size()];
    plan.read_keys.push_back(next_key(p));
  }
  return plan;
}

TxnPlan PlanGenerator::MakeLocalReadWrite(int reads, int writes,
                                          Rng* rng) const {
  TxnPlan plan = MakeReadWrite(reads, writes, 1, rng);
  plan.kind = TxnPlan::Kind::kReadWrite;
  return plan;
}

TxnPlan PlanGenerator::MakeWriteOnly(int writes, Rng* rng) const {
  TxnPlan plan;
  plan.kind = TxnPlan::Kind::kWriteOnly;
  PartitionId p = PickClusters(1, rng)[0];
  std::set<Key> used;
  for (int i = 0; i < writes; ++i) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Key& k = keys_->RandomKeyIn(p, rng);
      if (used.insert(k).second) {
        plan.writes.push_back(WriteOp{k, keys_->RandomValue(rng)});
        break;
      }
    }
  }
  return plan;
}

TxnPlan PlanGenerator::MakeReadOnly(int total_keys, int clusters,
                                    Rng* rng) const {
  TxnPlan plan;
  plan.kind = TxnPlan::Kind::kReadOnly;
  std::vector<PartitionId> parts = PickClusters(clusters, rng);
  std::set<Key> used;
  for (int i = 0; i < total_keys; ++i) {
    PartitionId p = parts[static_cast<size_t>(i) % parts.size()];
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Key& k = keys_->RandomKeyIn(p, rng);
      if (used.insert(k).second) {
        plan.read_keys.push_back(k);
        break;
      }
    }
  }
  return plan;
}

}  // namespace transedge::workload
