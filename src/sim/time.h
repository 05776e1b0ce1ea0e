#ifndef TRANSEDGE_SIM_TIME_H_
#define TRANSEDGE_SIM_TIME_H_

#include <cstdint>

namespace transedge::sim {

/// Simulated time in microseconds since simulation start.
///
/// The whole system runs on virtual time: protocol latencies and
/// throughputs reported by the benches are functions of message rounds,
/// link latencies, and the CPU cost model — fully deterministic and
/// independent of the host machine.
using Time = int64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000000;

constexpr Time Micros(int64_t n) { return n * kMicrosecond; }
constexpr Time Millis(int64_t n) { return n * kMillisecond; }
constexpr Time Seconds(int64_t n) { return n * kSecond; }

/// Converts simulated time to floating-point milliseconds for reporting.
constexpr double ToMillis(Time t) { return static_cast<double>(t) / 1000.0; }
constexpr double ToSeconds(Time t) {
  return static_cast<double>(t) / 1000000.0;
}

/// What a CpuMeter has booked so far: `busy` sums the cost of every
/// charge, and `wait` sums the time each charge waited for the work
/// booked before it to finish.
struct CpuTime {
  Time busy = 0;
  Time wait = 0;
};

/// Models a single-threaded server core: work is serialized, so a burst
/// of messages queues behind the busy CPU. `Charge` books `cost` units of
/// work arriving at `now` and returns the completion time.
class CpuMeter {
 public:
  Time Charge(Time now, Time cost) {
    const Time start = busy_until_ > now ? busy_until_ : now;
    // A zero-cost charge only pins the clock: it does no work and waits
    // for none.
    if (cost > 0) {
      time_.busy += cost;
      time_.wait += start - now;
    }
    busy_until_ = start + cost;
    return busy_until_;
  }

  /// Completion time of all booked work.
  Time busy_until() const { return busy_until_; }
  const CpuTime& time() const { return time_; }

 private:
  Time busy_until_ = 0;
  CpuTime time_;
};

}  // namespace transedge::sim

#endif  // TRANSEDGE_SIM_TIME_H_
