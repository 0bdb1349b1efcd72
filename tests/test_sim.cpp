// Unit tests for the discrete-event engine: ordering, cancellation,
// determinism, and bounded runs.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace cb::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::ms(30), [&] { order.push_back(3); });
  sim.schedule(Duration::ms(10), [&] { order.push_back(1); });
  sim.schedule(Duration::ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().to_seconds(), 0.03);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule(Duration::ms(1), tick);
  };
  sim.schedule(Duration::ms(1), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().nanos(), Duration::ms(5).nanos());
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(Duration::ms(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule(Duration::ms(1), [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Duration::ms(i * 10), [&] { ++count; });
  }
  sim.run_until(TimePoint::zero() + Duration::ms(35));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now().nanos(), Duration::ms(35).nanos());
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator sim;
  sim.run_until(TimePoint::zero() + Duration::s(5));
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
}

TEST(Simulator, RunUntilSkipsCancelledHeadWithoutOvershoot) {
  Simulator sim;
  bool late_ran = false;
  EventHandle head = sim.schedule(Duration::ms(1), [] {});
  sim.schedule(Duration::ms(100), [&] { late_ran = true; });
  head.cancel();
  sim.run_until(TimePoint::zero() + Duration::ms(50));
  EXPECT_FALSE(late_ran);  // the 100ms event must not leak past the deadline
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(Duration::s(1));
  sim.run_for(Duration::s(1));
  EXPECT_EQ(sim.now().to_seconds(), 2.0);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Duration::ms(-1), [] {}), std::invalid_argument);
}

TEST(Simulator, DeterministicRngAcrossRuns) {
  std::vector<std::uint64_t> a, b;
  {
    Simulator sim(42);
    for (int i = 0; i < 10; ++i) a.push_back(sim.rng().next_u64());
  }
  {
    Simulator sim(42);
    for (int i = 0; i < 10; ++i) b.push_back(sim.rng().next_u64());
  }
  EXPECT_EQ(a, b);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(Duration::ms(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CancelReleasesClosureEagerly) {
  // Regression: a cancelled event's closure (and everything it captures)
  // must be destroyed at cancel() time, not when its timestamp pops.
  Simulator sim;
  auto captured = std::make_shared<int>(7);
  std::weak_ptr<int> watch = captured;
  EventHandle h = sim.schedule(Duration::s(3600), [captured] { (void)*captured; });
  captured.reset();
  EXPECT_FALSE(watch.expired());  // queue still owns the closure
  h.cancel();
  EXPECT_TRUE(watch.expired());  // cancel released it without running anything
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, DestructionReleasesPendingClosures) {
  auto captured = std::make_shared<int>(1);
  std::weak_ptr<int> watch = captured;
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule(Duration::s(10), [captured] { (void)*captured; });
    captured.reset();
    EXPECT_TRUE(h.pending());
  }
  EXPECT_TRUE(watch.expired());   // simulator death freed the closure
  EXPECT_FALSE(h.pending());      // surviving handle is safely inert
  h.cancel();                     // and cancelling it is a no-op
}

TEST(Simulator, SlotReuseDoesNotConfuseStaleHandles) {
  // A handle to a fired event must stay non-pending even after its pool
  // slot is recycled by a later schedule (generation counters, not flags).
  Simulator sim;
  int ran = 0;
  EventHandle first = sim.schedule(Duration::ms(1), [&] { ++ran; });
  sim.run();
  EXPECT_FALSE(first.pending());
  EventHandle second = sim.schedule(Duration::ms(1), [&] { ++ran; });
  EXPECT_FALSE(first.pending());  // stale handle, recycled slot
  first.cancel();                 // must not cancel the new event
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(second.pending() == false);
}

/// Records the address its call runs at: events run inside their pool slot,
/// so this identifies the slot.
struct AddressProbe {
  const void** at;
  bool throws;
  void operator()() {
    *at = this;
    if (throws) throw std::runtime_error("event failed");
  }
};

TEST(Simulator, ThrowingEventReleasesClosure) {
  // A callback that throws out of run() must still have its closure
  // destroyed and its slot returned for reuse; later events run in order.
  Simulator sim;
  auto captured = std::make_shared<int>(7);
  std::weak_ptr<int> watch = captured;
  const void* thrower_at = nullptr;
  const void* reuser_at = nullptr;
  std::vector<int> order;
  EventHandle thrower = sim.schedule(Duration::ms(1), [probe = AddressProbe{&thrower_at, true},
                                                       captured]() mutable { probe(); });
  captured.reset();
  sim.schedule(Duration::ms(1), [&] { order.push_back(1); });
  sim.schedule(Duration::ms(2), [&] { order.push_back(2); });

  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_TRUE(watch.expired());  // the closure died with the exception
  EXPECT_FALSE(thrower.pending());
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.events_queued(), 2u);

  // The freed slot is the next one handed out, and the engine resumes.
  sim.schedule(Duration::ms(1), AddressProbe{&reuser_at, false});
  sim.run();
  EXPECT_EQ(reuser_at, thrower_at);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().nanos(), Duration::ms(2).nanos());
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(sim.events_queued(), 0u);
}

TEST(Simulator, CallbackGrowingPoolRunsInPlace) {
  // A running callback schedules enough events to allocate several new
  // slot chunks, then keeps using its own captures (a relocated closure
  // would be read after free under ASan) and cancels events scattered
  // through the heap. The survivors fire in (time, seq) order.
  constexpr int kSpawn = 3000;
  Simulator sim;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  std::string payload(64, 'x');
  sim.schedule(Duration::ms(1), [&sim, &handles, &fired, payload] {
    for (int i = 0; i < kSpawn; ++i) {
      // Later schedules get earlier times, so each one sifts up the heap.
      handles.push_back(sim.schedule(Duration::us(kSpawn - i % 1000), [&fired, i] {
        fired.push_back(i);
      }));
    }
    EXPECT_EQ(payload, std::string(64, 'x'));
    for (int i = 0; i < kSpawn; i += 3) handles[static_cast<std::size_t>(i)].cancel();
    EXPECT_EQ(sim.events_queued(), static_cast<std::size_t>(kSpawn - kSpawn / 3));
    EXPECT_EQ(payload, std::string(64, 'x'));
  });
  sim.run();

  std::vector<int> want;
  for (int t = 0; t < 1000; ++t) {  // ascending time = descending i % 1000
    for (int i = 999 - t; i < kSpawn; i += 1000) {
      if (i % 3 != 0) want.push_back(i);
    }
  }
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.events_queued(), 0u);
  for (const EventHandle& h : handles) EXPECT_FALSE(h.pending());
}

}  // namespace
}  // namespace cb::sim
