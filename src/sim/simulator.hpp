// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an ordered queue of callbacks.
// Everything else in the repo — links, TCP timers, attach procedures, app
// workloads — schedules work through it. Events at equal timestamps run in
// scheduling order (a monotonic sequence number breaks ties), so runs are
// deterministic for a fixed seed.
//
// Storage layout: callables live in pool slots (small-buffer optimized, see
// inplace_fn.hpp) allocated in fixed-size chunks, so a slot never moves.
// The queue is an indexed 4-ary min-heap of {time, seq, slot} entries keyed
// on (time, seq); every queued slot records its heap position. Cancellation
// erases the entry from the heap in O(log n) and destroys the callable
// eagerly — a cancelled closure releases everything it captured at once,
// and the heap only ever holds pending events (nothing is popped to be
// skipped). A due event's closure runs inside its slot, which is freed after
// the call returns (also when it throws). (time, seq) is unique, so the pop
// order does not depend on the heap's shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/inplace_fn.hpp"

namespace cb::sim {

class Simulator;

namespace detail {

/// Event storage, shared (via shared_ptr) between the simulator and
/// outstanding EventHandles so a handle can still answer pending()/cancel()
/// safely after the simulator is destroyed.
struct EventPool {
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::size_t kArity = 4;

  struct Slot {
    std::uint64_t gen = 0;       // bumped on fire/cancel; handles compare against it
    std::uint32_t heap_pos = 0;  // index of this slot's entry while pending
    InplaceFn fn;
  };
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  std::vector<std::unique_ptr<Slot[]>> chunks;  // never move once allocated
  std::uint32_t n_slots = 0;
  std::vector<std::uint32_t> free_list;
  std::vector<Entry> heap;  // exactly the pending events

  Slot& slot(std::uint32_t idx) { return chunks[idx >> kChunkShift][idx & (kChunkSize - 1)]; }

  std::uint32_t acquire(InplaceFn fn) {
    std::uint32_t idx;
    if (!free_list.empty()) {
      idx = free_list.back();
      free_list.pop_back();
    } else {
      if ((n_slots & (kChunkSize - 1)) == 0) chunks.push_back(std::make_unique<Slot[]>(kChunkSize));
      idx = n_slots++;
    }
    slot(idx).fn = std::move(fn);
    return idx;
  }

  /// Destroy the slot's closure, then make the slot reusable.
  void release(std::uint32_t idx) {
    slot(idx).fn.reset();
    free_list.push_back(idx);
  }

  void push(const Entry& e) {
    heap.emplace_back();
    sift_up(heap.size() - 1, e);
  }

  /// Remove the entry at heap position `pos` (0 pops the earliest).
  void erase(std::size_t pos);

 private:
  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void place(std::size_t pos, const Entry& e) {
    heap[pos] = e;
    slot(e.slot).heap_pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, const Entry& e);
  void sift_down(std::size_t pos, const Entry& e);
};

}  // namespace detail

/// Cancellation handle for a scheduled event. Cheap to copy; cancelling an
/// already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  /// Prevent the event from firing (if it has not already). The event's
  /// closure is destroyed immediately.
  void cancel();
  /// True if the event is still pending.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::EventPool> pool, std::uint32_t slot, std::uint64_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

/// Engine-health observation point for the invariant checker (src/check).
/// A Simulator carries an optional probe pointer; when none is installed the
/// per-event cost is one predictable null-check branch (the same contract as
/// the obs layer's handles), and CB_CHECK_COMPILED_OUT removes even that.
/// The probe only *counts* — it never mutates engine state — so installing
/// one cannot perturb event order or the chaos golden fingerprints.
struct EngineProbe {
  /// Events executed while the probe was installed.
  std::uint64_t executed = 0;
  /// Events that popped with a timestamp below the clock at pop time (the
  /// heap or the scheduling guard is broken if this ever moves).
  std::uint64_t past_events = 0;
  /// Pops whose timestamp was below the previous pop's (heap monotonicity).
  std::uint64_t order_regressions = 0;
  TimePoint last_pop;
};

/// The event engine. Not thread-safe; a whole experiment runs on one engine.
/// Independent engines on different threads are fine (the logger's time
/// source is thread-local), which is what the parallel trial-runner uses.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// The engine's root RNG; components should `fork()` children from it.
  Rng& rng() { return rng_; }

  /// Run `fn` after `delay`. Returns a handle that can cancel it.
  template <typename F>
  EventHandle schedule(Duration delay, F&& fn) {
    if (delay < Duration::zero()) throw std::invalid_argument("schedule: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run `fn` at absolute time `at` (>= now).
  template <typename F>
  EventHandle schedule_at(TimePoint at, F&& fn) {
    if (at < now_) throw std::invalid_argument("schedule_at: time in the past");
    const std::uint32_t slot = pool_->acquire(InplaceFn(std::forward<F>(fn)));
    pool_->push({at, next_seq_++, slot});
    return EventHandle{pool_, slot, pool_->slot(slot).gen};
  }

  /// Process events until the queue is empty.
  void run();
  /// Process events with timestamps <= deadline; the clock ends at
  /// `deadline` even if the queue drains early.
  void run_until(TimePoint deadline);
  /// Convenience: run_until(now + d).
  void run_for(Duration d);

  /// Number of events executed so far (for tests/debug).
  std::uint64_t events_executed() const { return executed_; }
  /// Number of events in the queue — always exactly the pending ones.
  std::size_t events_queued() const { return pool_->heap.size(); }

  /// Install (or remove, with nullptr) the engine-health probe. The caller
  /// keeps ownership; the probe must outlive the simulator or be removed
  /// first. No-op under CB_CHECK_COMPILED_OUT.
  void set_probe(EngineProbe* probe) {
#ifndef CB_CHECK_COMPILED_OUT
    probe_ = probe;
    if (probe_) probe_->last_pop = now_;
#else
    (void)probe;
#endif
  }

 private:
  // Execute the earliest event; false if the queue is empty. With a
  // deadline, events after it stay queued and false is returned.
  bool step(const TimePoint* deadline);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::shared_ptr<detail::EventPool> pool_;
  Rng rng_;
#ifndef CB_CHECK_COMPILED_OUT
  EngineProbe* probe_ = nullptr;
#endif
};

}  // namespace cb::sim
