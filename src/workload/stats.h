#ifndef TRANSEDGE_WORKLOAD_STATS_H_
#define TRANSEDGE_WORKLOAD_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace transedge::workload {

/// Collects latency samples (simulated microseconds) and reports the
/// usual summary statistics. Sample storage is exact — bench runs are
/// small enough that reservoirs are unnecessary.
class LatencyStats {
 public:
  void Record(sim::Time latency_us) {
    samples_.push_back(latency_us);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double MeanMs() const;
  double PercentileMs(double p) const;  // p in [0, 100]
  double P50Ms() const { return PercentileMs(50); }
  double P99Ms() const { return PercentileMs(99); }
  double MaxMs() const;

  void Clear() { samples_.clear(); }

 private:
  // Sorted lazily by the accessors.
  mutable std::vector<sim::Time> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

}  // namespace transedge::workload

#endif  // TRANSEDGE_WORKLOAD_STATS_H_
