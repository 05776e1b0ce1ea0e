// Tamper audit: what "untrusted edge nodes" means in practice.
//
// Scenario: an auditor queries account balances held by edge clusters.
// One cluster's leader is compromised and (a) rewrites values in its
// responses, then (b) serves an old-but-certified snapshot. The auditor
// detects (a) through Merkle verification against the f+1-signed batch
// certificate, and flags (b) through the freshness window (§4.4.2).

#include <cstdio>

#include "core/system.h"
#include "workload/generator.h"

using namespace transedge;

int main() {
  core::SystemConfig config;
  config.num_partitions = 2;
  config.f = 1;
  config.batch_interval = sim::Millis(5);
  config.merkle_depth = 10;
  config.freshness_window = sim::Millis(150);

  sim::EnvironmentOptions env_opts;
  env_opts.seed = 31;
  env_opts.inter_site_latency = sim::Millis(2);

  core::System system(config, env_opts);

  std::vector<std::pair<Key, Value>> accounts;
  for (int i = 0; i < 64; ++i) {
    accounts.emplace_back("acct" + std::to_string(i), ToBytes("balance:100"));
  }
  system.Preload(accounts);
  system.Start();

  storage::PartitionMap pmap(2);
  Key audited;
  for (const auto& [k, v] : accounts) {
    if (pmap.OwnerOf(k) == 0) {
      audited = k;
      break;
    }
  }

  core::Client* teller = system.AddClient();
  core::Client* auditor = system.AddClient();

  // Background writes keep batches flowing (so "stale" is meaningful).
  std::function<void()> churn = [&] {
    if (system.env().now() > sim::Seconds(5)) return;
    static int n = 0;
    teller->ExecuteReadWrite(
        {}, {WriteOp{audited, ToBytes("balance:" + std::to_string(100 + ++n))}},
        [&](core::RwResult) { churn(); });
  };

  system.env().Schedule(sim::Millis(30), churn);
  system.env().RunUntil(sim::Seconds(2));

  // Phase 1: honest read.
  auditor->ExecuteReadOnly({audited}, [&](core::RoResult r) {
    std::printf("[honest leader]    status=%s fresh=%s value=%s\n",
                r.status.ToString().c_str(), r.fresh ? "yes" : "no",
                r.values[audited].has_value()
                    ? ToString(*r.values[audited]).c_str()
                    : "<absent>");
  });
  system.env().RunUntil(sim::Seconds(3) / 1);

  // Phase 2: the leader starts tampering with response values.
  system.leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kTamperReadValue);
  auditor->ExecuteReadOnly({audited}, [&](core::RoResult r) {
    std::printf("[tampering leader] status=%s  (detected=%s)\n",
                r.status.ToString().c_str(),
                r.status.IsVerificationFailed() ? "YES" : "no");
  });
  system.env().RunUntil(sim::Seconds(4));

  // Phase 3: the leader serves a stale (but internally consistent and
  // certified) snapshot instead.
  system.leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kStaleSnapshot);
  auditor->ExecuteReadOnly({audited}, [&](core::RoResult r) {
    std::printf(
        "[stale leader]     status=%s fresh=%s  (stale snapshot flagged=%s)\n",
        r.status.ToString().c_str(), r.fresh ? "yes" : "no",
        !r.fresh ? "YES" : "no");
  });
  system.env().RunUntil(sim::Seconds(6));

  std::printf(
      "\naudit summary: verification failures observed by auditor: %llu\n",
      static_cast<unsigned long long>(
          auditor->stats().ro_verification_failures));
  return 0;
}
