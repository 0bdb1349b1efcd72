// Differential property test for the event engine: the indexed 4-ary heap
// (cancel erases the entry, closures run in their slot) must fire exactly the
// same (time, seq) sequence and answer pending() exactly like the engine's
// earlier design — a std::priority_queue whose cancelled entries stay queued
// until they pop and are skipped — which is kept below as the reference.
//
// Random programs mix schedules (many zero-delay and tied timestamps),
// cancels of pending, fired, already-cancelled and currently-running events
// (from inside callbacks and between runs), run_until deadlines, and handles
// that outlive the simulator. Both engines must also hold the same number of
// live closures at every observation point, and the heap must hold exactly
// the pending events.
//
// CB_TEST_SEED=<n> replays from seed n (see test_seed.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/simulator.hpp"
#include "test_seed.hpp"

namespace cb::sim {
namespace {

// --- reference: the priority-queue engine with cancelled entries -----------

struct RefPool {
  struct Slot {
    std::uint64_t gen = 0;
    InplaceFn fn;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;

  std::uint32_t acquire(InplaceFn fn) {
    std::uint32_t idx;
    if (!free_list.empty()) {
      idx = free_list.back();
      free_list.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[idx].fn = std::move(fn);
    return idx;
  }

  void release(std::uint32_t idx) {
    slots[idx].fn.reset();
    free_list.push_back(idx);
  }
};

class RefHandle {
 public:
  RefHandle() = default;
  RefHandle(std::shared_ptr<RefPool> pool, std::uint32_t slot, std::uint64_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  void cancel() {
    if (!pool_) return;
    auto& slot = pool_->slots[slot_];
    if (slot.gen != gen_) return;
    ++slot.gen;
    pool_->release(slot_);
  }
  bool pending() const { return pool_ && pool_->slots[slot_].gen == gen_; }

 private:
  std::shared_ptr<RefPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class RefSimulator {
 public:
  explicit RefSimulator(std::uint64_t /*seed*/) : pool_(std::make_shared<RefPool>()) {}
  ~RefSimulator() {
    for (auto& slot : pool_->slots) {
      ++slot.gen;
      slot.fn.reset();
    }
  }

  TimePoint now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }

  template <typename F>
  RefHandle schedule(Duration delay, F&& fn) {
    const TimePoint at = now_ + delay;
    const std::uint32_t slot = pool_->acquire(InplaceFn(std::forward<F>(fn)));
    const std::uint64_t gen = pool_->slots[slot].gen;
    queue_.push(Event{at, next_seq_++, slot, gen});
    return RefHandle{pool_, slot, gen};
  }

  void run() {
    while (step(nullptr)) {
    }
  }
  void run_until(TimePoint deadline) {
    while (step(&deadline)) {
    }
    if (now_ < deadline) now_ = deadline;
  }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool step(const TimePoint* deadline) {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (pool_->slots[top.slot].gen != top.gen) {
        queue_.pop();
        continue;
      }
      if (deadline && top.at > *deadline) return false;
      const Event ev = top;
      queue_.pop();
      now_ = ev.at;
      auto& slot = pool_->slots[ev.slot];
      InplaceFn fn = std::move(slot.fn);
      ++slot.gen;
      pool_->release(ev.slot);
      ++executed_;
      fn();
      return true;
    }
    return false;
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::shared_ptr<RefPool> pool_;
};

// --- the random program, run identically against either engine -------------

struct Trace {
  /// (fire time ns, schedule index) per executed event. The schedule index
  /// is the event's seq: both engines number schedules from 0.
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;
  /// Every pending() answer the program asked for, in order.
  std::vector<bool> pending;
  /// Live closures at each observation point (inside callbacks and between
  /// runs); clock and executed count after each run_until slice.
  std::vector<long> live;
  std::vector<std::int64_t> slice_now;
  std::vector<std::uint64_t> slice_executed;
  /// pending() of every handle once the simulator is gone, and the closures
  /// still alive then.
  std::vector<bool> pending_after;
  long live_after = -1;
};

template <class Sim>
class Program {
 public:
  using Handle = decltype(std::declval<Sim&>().schedule(Duration::zero(), [] {}));
  static constexpr bool kHasQueueCount = requires(const Sim& s) { s.events_queued(); };

  explicit Program(std::uint64_t seed) : rng_(seed) {}

  Trace run() {
    {
      Sim sim(1);
      sim_ = &sim;
      const int initial = 5 + static_cast<int>(rng_.next_below(30));
      for (int i = 0; i < initial; ++i) schedule_random();
      for (int slice = 0; slice < 15; ++slice) {
        for (std::uint64_t k = rng_.next_below(5); k > 0; --k) act(kNoEvent);
        sim.run_until(sim.now() + random_delay());
        trace_.slice_now.push_back(sim.now().nanos());
        trace_.slice_executed.push_back(sim.events_executed());
        observe_between_runs();
      }
      // Half the programs drain the queue; the rest destroy the simulator
      // with events still pending.
      if (rng_.next_below(2) == 0) {
        sim.run();
        observe_between_runs();
      }
      sim_ = nullptr;
    }
    for (Handle& h : handles_) {
      trace_.pending_after.push_back(h.pending());
      h.cancel();  // must be a no-op on a dead engine
    }
    trace_.live_after = token_.use_count() - 1;
    return std::move(trace_);
  }

 private:
  static constexpr std::size_t kNoEvent = ~std::size_t{0};
  static constexpr std::size_t kMaxEvents = 2500;

  /// Few distinct delays, many of them zero, so ties on `at` are common.
  Duration random_delay() {
    static constexpr std::int64_t kUs[] = {0, 0, 0, 1, 1, 7, 100, 1000, 5000};
    return Duration::us(kUs[rng_.next_below(std::size(kUs))]);
  }

  void schedule_random() {
    if (handles_.size() >= kMaxEvents) return;
    const std::size_t id = handles_.size();
    handles_.push_back(sim_->schedule(random_delay(), [this, id, tok = token_] { fire(id); }));
  }

  void fire(std::size_t id) {
    trace_.fired.emplace_back(sim_->now().nanos(), id);
    // Inside a callback the running closure is alive but no longer queued.
    const long live = token_.use_count() - 1;
    trace_.live.push_back(live);
    if constexpr (kHasQueueCount) {
      EXPECT_EQ(static_cast<long>(sim_->events_queued()), live - 1);
    }
    for (std::uint64_t k = rng_.next_below(7); k > 0; --k) act(id);
  }

  void act(std::size_t self) {
    switch (rng_.next_below(7)) {
      case 0:
      case 1:
      case 2:
        schedule_random();
        break;
      case 3:  // any handle: pending, fired, cancelled, or the running one
        if (!handles_.empty()) handles_[rng_.next_below(handles_.size())].cancel();
        break;
      case 4:  // the most recent schedules, which are usually still pending
        if (!handles_.empty()) {
          const std::size_t back = std::min<std::size_t>(handles_.size(), 8);
          handles_[handles_.size() - 1 - rng_.next_below(back)].cancel();
        }
        break;
      case 5:
        if (self != kNoEvent) {
          handles_[self].cancel();  // cancelling the running event: a no-op
          trace_.pending.push_back(handles_[self].pending());
        }
        break;
      default:
        if (!handles_.empty()) {
          trace_.pending.push_back(handles_[rng_.next_below(handles_.size())].pending());
        }
        break;
    }
  }

  void observe_between_runs() {
    const long live = token_.use_count() - 1;
    trace_.live.push_back(live);
    long pending = 0;
    for (const Handle& h : handles_) pending += h.pending() ? 1 : 0;
    EXPECT_EQ(pending, live);  // no closure outlives its event
    if constexpr (kHasQueueCount) {
      EXPECT_EQ(static_cast<long>(sim_->events_queued()), pending);
    }
  }

  Rng rng_;
  Sim* sim_ = nullptr;
  std::vector<Handle> handles_;
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
  Trace trace_;
};

template <class T>
void expect_same_sequence(const std::vector<T>& got, const std::vector<T>& want,
                          const char* what) {
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) {
      ADD_FAILURE() << what << " diverges at index " << i;
      return;
    }
  }
  EXPECT_EQ(got.size(), want.size()) << what << " length";
}

TEST(EngineDifferential, IndexedHeapMatchesCancelledEntryQueue) {
  const std::uint64_t base = test::seed_or(7000);
  std::size_t fired_total = 0;
  for (std::uint64_t s = base; s < base + 40; ++s) {
    SCOPED_TRACE("seed " + std::to_string(s));
    const Trace want = Program<RefSimulator>(s).run();
    const Trace got = Program<Simulator>(s).run();
    expect_same_sequence(got.fired, want.fired, "(time, seq) firing sequence");
    expect_same_sequence(got.pending, want.pending, "pending() answers");
    expect_same_sequence(got.live, want.live, "live closures");
    expect_same_sequence(got.slice_now, want.slice_now, "clock after run_until");
    expect_same_sequence(got.slice_executed, want.slice_executed, "events executed");
    expect_same_sequence(got.pending_after, want.pending_after, "pending() after destruction");
    for (bool p : got.pending_after) EXPECT_FALSE(p);
    EXPECT_EQ(got.live_after, 0);
    EXPECT_EQ(want.live_after, 0);
    fired_total += got.fired.size();
  }
  // The programs must actually exercise the engine, not drain trivially.
  EXPECT_GT(fired_total, 40u * 50u);
}

}  // namespace
}  // namespace cb::sim
