#include <gtest/gtest.h>

#include <vector>

#include "sim/environment.h"

namespace transedge::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, TiesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, EventsScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) q.ScheduleAt(q.now() + 10, chain);
  };
  q.ScheduleAt(0, chain);
  q.RunUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(20, [&] { ++fired; });
  q.ScheduleAt(30, [&] { ++fired; });
  q.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.RunUntil(100);
  EXPECT_EQ(q.now(), 100);
}

TEST(CpuMeterTest, SerializesWork) {
  CpuMeter cpu;
  EXPECT_EQ(cpu.Charge(0, 10), 10);
  EXPECT_EQ(cpu.Charge(0, 10), 20);   // Queued behind the first job.
  EXPECT_EQ(cpu.Charge(100, 5), 105);  // Idle gap skipped.
}

TEST(CpuMeterTest, TotalsBusyAndWaitTime) {
  CpuMeter cpu;
  cpu.Charge(0, 10);
  cpu.Charge(4, 10);   // Waits 6 behind the first job.
  cpu.Charge(15, 0);   // A pin: no work, no wait.
  cpu.Charge(100, 5);  // Idle CPU: no wait.
  EXPECT_EQ(cpu.time().busy, 25);
  EXPECT_EQ(cpu.time().wait, 6);
}

// --- Network -----------------------------------------------------------------

struct Probe : Actor {
  std::vector<std::pair<ActorId, uint32_t>> received;
  EventQueue* q = nullptr;
  std::vector<Time> arrival_times;

  void OnMessage(ActorId from, const MessagePtr& msg) override {
    received.emplace_back(from, msg->type());
    if (q != nullptr) arrival_times.push_back(q->now());
  }
};

struct TestMsg : Message {
  uint32_t type() const override { return 777; }
};

TEST(NetworkTest, DeliversWithIntraSiteLatency) {
  EventQueue q;
  Network net(&q, LatencyModel(Micros(100), Millis(5), 0), 1);
  Probe a, b;
  b.q = &q;
  net.Register(0, 0, &a);
  net.Register(1, 0, &b);
  net.Send(0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, 0u);
  EXPECT_EQ(b.arrival_times[0], Micros(100));
}

TEST(NetworkTest, InterSiteLatencyApplies) {
  EventQueue q;
  Network net(&q, LatencyModel(Micros(100), Millis(5), 0), 1);
  Probe a, b;
  b.q = &q;
  net.Register(0, 0, &a);
  net.Register(1, 3, &b);
  net.Send(0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_EQ(b.arrival_times[0], Millis(5));
}

TEST(NetworkTest, SitePairOverride) {
  EventQueue q;
  LatencyModel model(Micros(100), Millis(5), 0);
  model.SetSitePairLatency(0, 3, Millis(70));
  Network net(&q, model, 1);
  Probe a, b;
  b.q = &q;
  net.Register(0, 0, &a);
  net.Register(1, 3, &b);
  net.Send(0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_EQ(b.arrival_times[0], Millis(70));
}

TEST(NetworkTest, LinkFilterDropsMessages) {
  EventQueue q;
  Network net(&q, LatencyModel(1, 1, 0), 1);
  Probe a, b;
  net.Register(0, 0, &a);
  net.Register(1, 0, &b);
  net.SetLinkFilter([](ActorId from, ActorId, const MessagePtr&) {
    return from != 0;  // Drop everything node 0 sends.
  });
  net.Send(0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);

  net.SetLinkFilter(nullptr);
  net.Send(0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, DisconnectSimulatesCrash) {
  EventQueue q;
  Network net(&q, LatencyModel(1, 1, 0), 1);
  Probe a, b;
  net.Register(0, 0, &a);
  net.Register(1, 0, &b);
  net.Disconnect(1);
  net.Send(0, 1, std::make_shared<const TestMsg>());
  net.Send(1, 0, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());

  net.Reconnect(1);
  net.Send(0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, SendAtDefersDeparture) {
  EventQueue q;
  Network net(&q, LatencyModel(Micros(100), Micros(100), 0), 1);
  Probe a, b;
  b.q = &q;
  net.Register(0, 0, &a);
  net.Register(1, 0, &b);
  net.SendAt(Millis(3), 0, 1, std::make_shared<const TestMsg>());
  q.RunUntilIdle();
  EXPECT_EQ(b.arrival_times[0], Millis(3) + Micros(100));
}

TEST(EnvironmentTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    EnvironmentOptions opts;
    opts.seed = seed;
    opts.latency_jitter = Micros(500);
    Environment env(opts);
    Probe a, b;
    b.q = &env.queue();
    env.network().Register(0, 0, &a);
    env.network().Register(1, 1, &b);
    for (int i = 0; i < 20; ++i) {
      env.network().Send(0, 1, std::make_shared<const TestMsg>());
    }
    env.RunUntilIdle();
    return b.arrival_times;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(EnvironmentTest, ScheduleRelativeDelay) {
  EnvironmentOptions opts;
  Environment env(opts);
  Time fired_at = -1;
  env.Schedule(Millis(7), [&] { fired_at = env.now(); });
  env.RunUntilIdle();
  EXPECT_EQ(fired_at, Millis(7));
}

}  // namespace
}  // namespace transedge::sim
