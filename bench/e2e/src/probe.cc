#include "probe.h"

#include <cstdio>

#include "wire/message.h"
#include "wire/serialize.h"

namespace transedge::e2e {

namespace {

using wire::MessageType;

/// Sampling and size cap of the Chrome trace: every op and batch span is
/// a candidate, one handler span in kHandlerSample is kept, and nothing
/// is added past kMaxEvents (~30 MB of JSON).
constexpr uint64_t kHandlerSample = 32;
constexpr uint64_t kOpSample = 8;
constexpr size_t kMaxEvents = 300000;

uint32_t T(MessageType type) { return static_cast<uint32_t>(type); }

}  // namespace

class Probe::Wrapper : public sim::Actor {
 public:
  Wrapper(Probe* probe, sim::Actor* target, Role role, crypto::NodeId id,
          const core::TransEdgeNode* node)
      : probe_(probe), target_(target), role_(role), id_(id), node_(node) {}

  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    if (!probe_->measuring_) {
      target_->OnMessage(from, msg);
      return;
    }
    const BatchId tail = node_ != nullptr ? node_->log().LastBatchId() : 0;
    const uint64_t decided =
        node_ != nullptr ? node_->stats().batches_decided : 0;
    probe_->BeforeDeliver(node_, *msg);
    const int64_t overhead_before = probe_->overhead_ns_;
    const int64_t start = NowNs();
    target_->OnMessage(from, msg);
    const int64_t net =
        NowNs() - start - (probe_->overhead_ns_ - overhead_before);
    probe_->AfterDeliver(role_, id_, node_, msg->type(), start, net, tail,
                         decided);
  }

 private:
  Probe* probe_;
  sim::Actor* target_;
  Role role_;
  crypto::NodeId id_;
  const core::TransEdgeNode* node_;
};

Probe::Probe(bool chrome) : chrome_(chrome) {}

Probe::~Probe() = default;

Probe::WireClass Probe::ClassOf(uint32_t type) {
  if (type >= T(MessageType::kClientRead) &&
      type <= T(MessageType::kCommitReply)) {
    return kClientWire;
  }
  if (type >= T(MessageType::kRoRequest) &&
      type <= T(MessageType::kRoBatchRequest)) {
    return kRoWire;
  }
  if (type >= T(MessageType::kPrePrepare) &&
      type <= T(MessageType::kLinearCatchUp)) {
    return kConsensusWire;
  }
  if (type >= T(MessageType::kCoordPrepare) &&
      type <= T(MessageType::kCommitRecord)) {
    return kTwoPcWire;
  }
  if (type >= T(MessageType::kWatchSubscribe) &&
      type <= T(MessageType::kWatchResubscribe)) {
    return kWatchWire;
  }
  return kOtherWire;
}

void Probe::Attach(core::System* system,
                   const std::vector<core::Client*>& clients,
                   const std::vector<core::WatchClient*>& watchers) {
  system_ = system;
  const core::SystemConfig& config = system->config();
  for (crypto::NodeId id = 0; id < config.total_replicas(); ++id) {
    Rewrap(id);
  }
  for (core::Client* c : clients) {
    Wrap(c->id(), c, Role::kClient, nullptr,
         "client " + std::to_string(c->id()));
  }
  for (core::WatchClient* w : watchers) {
    Wrap(w->id(), w, Role::kWatcher, nullptr,
         "watcher " + std::to_string(w->id()));
  }
  system->env().network().SetLinkFilter(
      [this](sim::ActorId from, sim::ActorId, const sim::MessagePtr& msg) {
        return OnSend(from, msg);
      });
}

void Probe::Rewrap(crypto::NodeId id) {
  const core::SystemConfig& config = system_->config();
  const PartitionId p = config.PartitionOfNode(id);
  const uint32_t index = config.ReplicaIndexOf(id);
  core::TransEdgeNode* node = system_->node(p, index);
  Wrap(id, node, Role::kReplica, node,
       "p" + std::to_string(p) + "/r" + std::to_string(index));
}

void Probe::Wrap(crypto::NodeId id, sim::Actor* target, Role role,
                 const core::TransEdgeNode* node, std::string track) {
  sim::Network& net = system_->env().network();
  wrappers_.push_back(std::make_unique<Wrapper>(this, target, role, id, node));
  net.Register(id, net.site_of(id), wrappers_.back().get());
  track_names_[id] = std::move(track);
}

void Probe::BeginWindow() {
  measuring_ = true;
  window_start_ns_ = NowNs();
}

void Probe::EndWindow() {
  measuring_ = false;
  window_wall_ns_ = NowNs() - window_start_ns_;
}

bool Probe::OnSend(sim::ActorId from, const sim::MessagePtr& msg) {
  if (!measuring_) return true;
  const int64_t start = NowNs();
  const uint32_t type = msg->type();
  const WireClass cls = ClassOf(type);
  if (msg != last_encoded_) {
    // A broadcast hands the same message to every recipient: encode once.
    last_size_ = wire::EncodeMessage(*msg).size();
    last_encoded_ = msg;
  }
  ++wire_msgs_[cls];
  wire_bytes_[cls] += last_size_;

  const sim::Time now = system_->env().now();
  const core::SystemConfig& config = system_->config();
  auto stamp_proposal = [&](const storage::Batch& batch) {
    const PartitionId p = config.PartitionOfNode(from);
    if (!proposed_at_.emplace(std::make_pair(p, batch.id), now).second) return;
    for (const auto* txns : {&batch.local, &batch.prepared}) {
      for (const Transaction& txn : *txns) {
        auto it = admitted_at_.find({p, txn.id});
        if (it == admitted_at_.end()) continue;
        batch_wait_.Record(now - it->second);
        admitted_at_.erase(it);
      }
    }
  };
  switch (static_cast<MessageType>(type)) {
    case MessageType::kPrePrepare:
      stamp_proposal(static_cast<const wire::PrePrepareMsg&>(*msg).batch);
      break;
    case MessageType::kLinearPropose:
      stamp_proposal(static_cast<const wire::LinearProposeMsg&>(*msg).batch);
      break;
    case MessageType::kCoordPrepare:
      coord_prepare_at_.emplace(
          static_cast<const wire::CoordPrepareMsg&>(*msg).txn.id, now);
      break;
    case MessageType::kCommitRecord: {
      auto it = coord_prepare_at_.find(
          static_cast<const wire::CommitRecordMsg&>(*msg).txn_id);
      if (it != coord_prepare_at_.end()) {
        prepare_to_record_.Record(now - it->second);
        coord_prepare_at_.erase(it);
      }
      break;
    }
    default:
      break;
  }
  overhead_ns_ += NowNs() - start;
  return true;
}

void Probe::BeforeDeliver(const core::TransEdgeNode* node,
                          const sim::Message& msg) {
  if (node == nullptr || !node->IsLeader()) return;
  const sim::Time now = system_->env().now();
  switch (static_cast<MessageType>(msg.type())) {
    case MessageType::kCommitRequest:
      admitted_at_.emplace(
          std::make_pair(node->partition(),
                         static_cast<const wire::CommitRequest&>(msg).txn.id),
          now);
      break;
    case MessageType::kCoordPrepare:
      admitted_at_.emplace(
          std::make_pair(node->partition(),
                         static_cast<const wire::CoordPrepareMsg&>(msg).txn.id),
          now);
      break;
    default:
      break;
  }
}

void Probe::AfterDeliver(Role role, crypto::NodeId id,
                         const core::TransEdgeNode* node, uint32_t type,
                         int64_t start_ns, int64_t net_ns,
                         BatchId tail_before, uint64_t decided_before) {
  handler_ns_ += net_ns;
  const uint64_t decided_now =
      node != nullptr ? node->stats().batches_decided : decided_before;
  if (decided_now > decided_before) {
    ++decide_.calls;
    decide_.ns += net_ns;
    decided_batches_ += decided_now - decided_before;
    if (node->IsLeader()) {
      const sim::Time now = system_->env().now();
      for (BatchId b = tail_before + 1; b <= node->log().LastBatchId(); ++b) {
        ++leader_decides_;
        auto it = proposed_at_.find({node->partition(), b});
        if (it == proposed_at_.end()) continue;
        propose_to_decide_.Record(now - it->second);
        AddEvent("batch", 1, id, static_cast<double>(it->second),
                 static_cast<double>(now - it->second));
        proposed_at_.erase(it);
      }
    }
  } else {
    Cost& c = cost_[static_cast<int>(role)][type % kTypes];
    ++c.calls;
    c.ns += net_ns;
  }
  if (chrome_ && ++sample_tick_ % kHandlerSample == 0) {
    AddEvent(wire::MessageTypeName(static_cast<MessageType>(type)), 2, id,
             static_cast<double>(start_ns - window_start_ns_) / 1e3,
             static_cast<double>(net_ns) / 1e3);
  }
}

void Probe::OpSpan(crypto::NodeId client, OpKind kind, sim::Time start,
                   sim::Time end) {
  if (!chrome_ || !measuring_ || ++op_tick_ % kOpSample != 0) return;
  AddEvent(kind == OpKind::kRo ? "ro_txn" : "rw_txn", 1, client,
           static_cast<double>(start), static_cast<double>(end - start));
}

void Probe::AddEvent(const char* name, int pid, uint32_t tid, double ts_us,
                     double dur_us) {
  if (!chrome_ || events_.size() >= kMaxEvents) return;
  events_.push_back(ChromeEvent{name, pid, tid, ts_us, dur_us});
}

Metrics Probe::Layers(double window_sim_s) const {
  auto per_call_us = [](std::initializer_list<Cost> costs) {
    uint64_t calls = 0;
    int64_t ns = 0;
    for (const Cost& c : costs) {
      calls += c.calls;
      ns += c.ns;
    }
    return calls == 0 ? 0.0 : static_cast<double>(ns) / 1e3 /
                                  static_cast<double>(calls);
  };
  auto at = [this](Role role, MessageType type) {
    return cost_[static_cast<int>(role)][T(type) % kTypes];
  };
  auto p50 = [](const workload::LatencyStats& s) {
    return s.empty() ? 0.0 : s.P50Ms();
  };
  const Role kR = Role::kReplica;
  Metrics m;
  m["consensus.validate_host_us_per_batch"] = {
      per_call_us({at(kR, MessageType::kPrePrepare),
                   at(kR, MessageType::kLinearPropose)}),
      "us"};
  m["consensus.decide_apply_host_us_per_batch"] = {
      decided_batches_ == 0 ? 0.0
                            : static_cast<double>(decide_.ns) / 1e3 /
                                  static_cast<double>(decided_batches_),
      "us"};
  m["consensus.vote_host_us_per_msg"] = {
      per_call_us({at(kR, MessageType::kPrepare), at(kR, MessageType::kCommit),
                   at(kR, MessageType::kLinearVote),
                   at(kR, MessageType::kLinearQc)}),
      "us"};
  m["consensus.propose_to_decide_ms_p50"] = {p50(propose_to_decide_), "ms"};
  m["pipeline.admit_host_us_per_req"] = {
      per_call_us({at(kR, MessageType::kCommitRequest)}), "us"};
  m["pipeline.batch_wait_ms_p50"] = {p50(batch_wait_), "ms"};
  m["twopc.host_us_per_msg"] = {
      per_call_us({at(kR, MessageType::kCoordPrepare),
                   at(kR, MessageType::kPrepared),
                   at(kR, MessageType::kCommitRecord)}),
      "us"};
  m["twopc.prepare_to_record_ms_p50"] = {p50(prepare_to_record_), "ms"};
  m["ro.serve_host_us_per_req"] = {
      per_call_us({at(kR, MessageType::kRoRequest),
                   at(kR, MessageType::kRoBatchRequest)}),
      "us"};
  m["client.ro_verify_host_us_per_reply"] = {
      per_call_us({at(Role::kClient, MessageType::kRoReply)}), "us"};
  m["client.rw_host_us_per_reply"] = {
      per_call_us({at(Role::kClient, MessageType::kClientReadReply),
                   at(Role::kClient, MessageType::kCommitReply)}),
      "us"};
  m["watch.client_verify_host_us_per_delta"] = {
      per_call_us({at(Role::kWatcher, MessageType::kWatchDelta)}), "us"};
  m["sim.timer_host_s_per_sim_s"] = {
      static_cast<double>(window_wall_ns_ - handler_ns_ - overhead_ns_) /
          1e9 / window_sim_s,
      "s/s"};

  static const char* const kClassNames[] = {"client", "ro", "consensus",
                                            "twopc", "watch"};
  for (int c = 0; c < kOtherWire; ++c) {
    m[std::string("wire.msgs_per_sim_s.") + kClassNames[c]] = {
        static_cast<double>(wire_msgs_[c]) / window_sim_s, "1/s"};
    m[std::string("wire.bytes_per_sim_s.") + kClassNames[c]] = {
        static_cast<double>(wire_bytes_[c]) / window_sim_s, "B/s"};
  }
  const double batches = static_cast<double>(leader_decides_);
  m["wire.consensus_msgs_per_batch"] = {
      batches == 0 ? 0.0
                   : static_cast<double>(wire_msgs_[kConsensusWire]) / batches,
      "count"};
  m["wire.consensus_bytes_per_batch"] = {
      batches == 0 ? 0.0
                   : static_cast<double>(wire_bytes_[kConsensusWire]) / batches,
      "B"};
  return m;
}

bool Probe::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"simulated time: ops and batches\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"host time: message handlers "
               "(sampled)\"}}");
  for (const auto& [tid, name] : track_names_) {
    for (int pid = 1; pid <= 2; ++pid) {
      std::fprintf(f,
                   ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                   "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                   pid, tid, name.c_str());
    }
  }
  for (const ChromeEvent& e : events_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 e.name, e.pid, e.tid, e.ts_us, e.dur_us);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace transedge::e2e
