#include "sim/simulator.hpp"

#include "common/log.hpp"

namespace cb::sim {

namespace {
// The most recently constructed simulator on THIS thread feeds the logger's
// time prefix. thread_local so independent engines can run concurrently on
// worker threads (parallel sweep runner) without touching each other.
thread_local Simulator* g_active = nullptr;
TimePoint log_now() { return g_active ? g_active->now() : TimePoint::zero(); }
}  // namespace

Simulator::Simulator(std::uint64_t seed)
    : pool_(std::make_shared<detail::EventPool>()), rng_(seed) {
  g_active = this;
  log_detail::set_time_source(&log_now);
}

Simulator::~Simulator() {
  if (g_active == this) {
    g_active = nullptr;
    log_detail::set_time_source(nullptr);
  }
  // Destroy all outstanding closures and invalidate handles: a closure must
  // not outlive the simulator (it may capture shared_ptrs keeping whole
  // node graphs alive), and a handle surviving past this point must report
  // non-pending rather than touch freed state. Every handle is invalidated
  // and the heap emptied BEFORE any closure dies, so a closure destructor
  // that cancels another event finds it already non-pending.
  auto& pool = *pool_;
  for (std::uint32_t i = 0; i < pool.n_slots; ++i) ++pool.slot(i).gen;
  pool.heap.clear();
  for (std::uint32_t i = 0; i < pool.n_slots; ++i) pool.slot(i).fn.reset();
}

namespace detail {

void EventPool::erase(std::size_t pos) {
  const Entry last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;  // it was the last entry
  // Re-seat the former last entry in the hole: it moves up or down, not both.
  if (pos > 0 && before(last, heap[(pos - 1) / kArity])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void EventPool::sift_up(std::size_t pos, const Entry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap[parent])) break;
    place(pos, heap[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventPool::sift_down(std::size_t pos, const Entry& e) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap[c], heap[best])) best = c;
    }
    if (!before(heap[best], e)) break;
    place(pos, heap[best]);
    pos = best;
  }
  place(pos, e);
}

}  // namespace detail

void EventHandle::cancel() {
  if (!pool_) return;
  auto& slot = pool_->slot(slot_);
  if (slot.gen != gen_) return;  // already fired or cancelled
  ++slot.gen;
  pool_->erase(slot.heap_pos);
  pool_->release(slot_);  // destroys the closure eagerly
}

bool EventHandle::pending() const { return pool_ && pool_->slot(slot_).gen == gen_; }

bool Simulator::step(const TimePoint* deadline) {
  auto& pool = *pool_;
  if (pool.heap.empty()) return false;
  const detail::EventPool::Entry ev = pool.heap.front();
  if (deadline && ev.at > *deadline) return false;
  pool.erase(0);
#ifndef CB_CHECK_COMPILED_OUT
  if (probe_) {
    ++probe_->executed;
    if (ev.at < now_) ++probe_->past_events;
    if (ev.at < probe_->last_pop) ++probe_->order_regressions;
    probe_->last_pop = ev.at;
  }
#endif
  now_ = ev.at;
  auto& slot = pool.slot(ev.slot);
  ++slot.gen;  // mark fired so handles report non-pending (even inside fn)
  ++executed_;
  // The closure runs in its slot: chunks never move, and the slot is not on
  // the free list until the call returns or throws, so nothing the closure
  // schedules can overwrite it.
  struct ReleaseAfterCall {
    detail::EventPool& pool;
    std::uint32_t slot;
    ~ReleaseAfterCall() { pool.release(slot); }
  } release{pool, ev.slot};
  slot.fn();
  return true;
}

void Simulator::run() {
  while (step(nullptr)) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  while (step(&deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_for(Duration d) { run_until(now_ + d); }

}  // namespace cb::sim
