#include "traffic/fluid.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

namespace cb::traffic {

namespace {

/// A flow whose residual is within this of zero is complete; the remainder
/// is banked as its final segment at the completion instant.
constexpr double kCompleteEpsBytes = 0.5;
/// Completion events are scheduled this far past the analytic completion
/// instant so integer-nanosecond truncation can never fire them early.
constexpr Duration kEventGuard = Duration::us(1);

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ---------------------------------------------------------------------------
// FillPool: the drain-phase worker pool (PR 3 trial_runner idiom, adapted to
// a reusable barrier: one task list per drain, main thread participates).
// Work items are claimed off a shared atomic counter, so the ASSIGNMENT of
// cells to threads is racy on purpose — but cells are disjoint and every
// observable side effect lives in a per-cell outcome slot committed later in
// cell-id order, so the race is invisible in the results.
//
// Generation retirement: run() may not return — and the next run() may not
// reset next_/task_ — while any helper is still inside claim_loop for the
// current generation. Otherwise a helper that finished the last item could
// loop back to next_.fetch_add after the counter was reset and claim index 0
// of the NEXT drain with the PREVIOUS, already-destroyed task. active_ counts
// helpers inside claim_loop; run() waits for done_ == total_ AND active_ == 0,
// and nulls task_ under the lock so a late-waking helper sees the generation
// is already retired. The TSan CI leg runs the thread-identity test against
// exactly this protocol.
// ---------------------------------------------------------------------------
class FluidEngine::FillPool {
 public:
  explicit FillPool(unsigned helpers) {
    threads_.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i) threads_.emplace_back([this] { loop(); });
  }

  ~FillPool() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Run task(0..n-1) across helpers + the calling thread; returns when all
  /// n items are done. Not reentrant.
  void run(std::size_t n, const std::function<void(std::size_t)>& task) {
    {
      std::lock_guard<std::mutex> l(mu_);
      task_ = &task;
      total_ = n;
      next_.store(0, std::memory_order_relaxed);
      done_ = 0;
      ++gen_;
    }
    cv_start_.notify_all();
    claim_loop(task, n);
    // Wait for every item to be done AND every helper to have left
    // claim_loop: only then is it safe for the caller to destroy `task` and
    // for the next run() to reset next_/task_ (see class comment).
    std::unique_lock<std::mutex> l(mu_);
    cv_done_.wait(l, [&] { return done_ == total_ && active_ == 0; });
    task_ = nullptr;
  }

 private:
  void claim_loop(const std::function<void(std::size_t)>& task, std::size_t n) {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      task(i);
      std::lock_guard<std::mutex> l(mu_);
      if (++done_ == total_) cv_done_.notify_all();
    }
  }

  void loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* task;
      std::size_t n;
      {
        std::unique_lock<std::mutex> l(mu_);
        cv_start_.wait(l, [&] { return stop_ || gen_ != seen; });
        if (stop_) return;
        seen = gen_;
        // task_ is nulled (under mu_) when a generation retires, so a helper
        // that wakes after run() already returned sees nullptr and parks
        // again instead of touching a destroyed task.
        if (task_ == nullptr) continue;
        task = task_;
        n = total_;
        ++active_;
      }
      claim_loop(*task, n);
      {
        std::lock_guard<std::mutex> l(mu_);
        if (--active_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t total_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t done_ = 0;
  std::size_t active_ = 0;  // helpers currently inside claim_loop
  std::uint64_t gen_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// FluidEngine
// ---------------------------------------------------------------------------

FluidEngine::FluidEngine(sim::Simulator& sim, SessionArena& arena, unsigned fill_threads)
    : sim_(sim), arena_(arena), threads_(fill_threads == 0 ? 1u : fill_threads) {
  if (threads_ > 1) pool_ = std::make_unique<FillPool>(threads_ - 1);
}

FluidEngine::~FluidEngine() = default;

void FluidEngine::CellOutcome::reset() {
  segment_bytes = 0.0;
  clamped_bytes = 0.0;
  negative_residuals = 0;
  min_completion_s = kInf;
  ghost_changes.clear();
}

std::uint32_t FluidEngine::add_cell(double capacity_bps) {
  Cell c;
  c.capacity_bps = capacity_bps;
  c.last_accrual = sim_.now();
  cells_.push_back(std::move(c));
  return static_cast<std::uint32_t>(cells_.size() - 1);
}

void FluidEngine::set_cell_capacity(std::uint32_t cell, double capacity_bps) {
  // Accrue at the OLD rates first — the capacity change takes effect now,
  // not retroactively over the elapsed accrual window.
  accrue_now(cells_[cell]);
  cells_[cell].capacity_bps = capacity_bps;
  mark_dirty(cell);
}

void FluidEngine::start_flow(SessionId id, double bytes) {
  assert(arena_.mode(id) == FlowMode::Idle);
  arena_.mode(id) = FlowMode::Fluid;
  arena_.demand_bytes(id) = bytes;
  arena_.delivered_bytes(id) = 0.0;
  arena_.rate_bps(id) = 0.0;
  arena_.start_ns(id) = sim_.now().nanos();
  Cell& c = cells_[arena_.cell(id)];
  accrue_now(c);  // existing members accrue before the newcomer dilutes them
  insert_member(c, id);
  ++active_fluid_;
  mark_dirty(arena_.cell(id));
}

void FluidEngine::handover(SessionId id, std::uint32_t new_cell) {
  const std::uint32_t old_cell = arena_.cell(id);
  if (old_cell == new_cell) return;
  // Bank both cells up to now BEFORE moving the member: the flow earns its
  // final window in the old cell at the old rate, and the new cell's
  // incumbents bank theirs before the arrival dilutes them.
  accrue_now(cells_[old_cell]);
  accrue_now(cells_[new_cell]);
  remove_member(cells_[old_cell], id);
  arena_.cell(id) = new_cell;
  insert_member(cells_[new_cell], id);
  mark_dirty(old_cell);
  mark_dirty(new_cell);
}

void FluidEngine::set_flow_cap(SessionId id, double cap_bps) {
  const FlowMode mode = arena_.mode(id);
  if (mode != FlowMode::Fluid && mode != FlowMode::Packet) {
    arena_.cap_bps(id) = cap_bps;  // not a cell member — no order to maintain
    return;
  }
  Cell& c = cells_[arena_.cell(id)];
  accrue_now(c);
  // Reposition in the persistent fill order: remove at the old key, insert
  // at the new one. O(log n) search + one memmove, vs the old full re-sort.
  remove_order(c, id, order_key(id));
  arena_.cap_bps(id) = cap_bps;
  insert_order(c, id, order_key(id));
  mark_dirty(arena_.cell(id));
}

double FluidEngine::demote(SessionId id) {
  assert(arena_.mode(id) == FlowMode::Fluid);
  // Bank progress up to this instant, then hand the residual to the lane.
  accrue_now(cells_[arena_.cell(id)]);
  arena_.mode(id) = FlowMode::Packet;
  arena_.rate_bps(id) = 0.0;  // the fill below publishes the ghost share
  --active_fluid_;
  ++demotions_;
  // Immediate fill (not deferred to the drain): the caller sizes the packet
  // lane from the ghost share the moment we return.
  fill_cell_now(arena_.cell(id));
  return arena_.residual_bytes(id);
}

void FluidEngine::promote(SessionId id) {
  assert(arena_.mode(id) == FlowMode::Packet);
  // Bank the cell while the flow is still a ghost, mirroring demote(): the
  // ghost carries a nonzero published share, and accruing after the mode
  // flip would credit that share over the packet window as fluid segments —
  // bytes the lane already delivered via TCP.
  accrue_now(cells_[arena_.cell(id)]);
  arena_.mode(id) = FlowMode::Fluid;
  ++active_fluid_;
  ++promotions_;
  fill_cell_now(arena_.cell(id));
}

void FluidEngine::finish_packet_flow(SessionId id) {
  assert(arena_.mode(id) == FlowMode::Packet);
  Cell& c = cells_[arena_.cell(id)];
  accrue_now(c);
  arena_.mode(id) = FlowMode::Done;
  arena_.rate_bps(id) = 0.0;
  arena_.finish_ns(id) = sim_.now().nanos();
  remove_member(c, id);
  mark_dirty(arena_.cell(id));
}

void FluidEngine::accrue_all() {
  for (Cell& c : cells_) accrue_now(c);
}

void FluidEngine::flush() {
  if (drain_scheduled_) {
    drain_event_.cancel();
    drain_scheduled_ = false;
  }
  drain();
}

// --- accrual ----------------------------------------------------------------

double FluidEngine::take_accrual_window(Cell& c) {
  const TimePoint now = sim_.now();
  const double dt_s = (now - c.last_accrual).to_seconds();
  c.last_accrual = now;
  return dt_s;
}

void FluidEngine::accrue_flow(SessionId id, double dt_s, CellOutcome& out) {
  if (arena_.mode(id) != FlowMode::Fluid) return;  // ghosts progress via packets
  const double offered = arena_.rate_bps(id) * dt_s / 8.0;
  if (offered <= 0.0) return;
  const double residual = arena_.residual_bytes(id);
  if (residual < 0.0) ++out.negative_residuals;
  const double add = std::min(offered, std::max(residual, 0.0));
  arena_.delivered_bytes(id) += add;
  out.segment_bytes += add;
  out.clamped_bytes += offered - add;
}

void FluidEngine::fold_ledger(const CellOutcome& out) {
  segment_bytes_ += out.segment_bytes;
  clamped_bytes_ += out.clamped_bytes;
  negative_residuals_ += out.negative_residuals;
}

void FluidEngine::accrue_now(Cell& c) {
  const double dt_s = take_accrual_window(c);
  if (dt_s <= 0.0) return;
  CellOutcome out;
  out.reset();
  for (SessionId id : c.flows) accrue_flow(id, dt_s, out);
  fold_ledger(out);
}

// --- water-filling ----------------------------------------------------------

double FluidEngine::order_key(SessionId id) const {
  const double cap = arena_.cap_bps(id);
  return cap > 0.0 ? cap / arena_.weight(id) : kInf;
}

void FluidEngine::fill_cell(Cell& c, CellOutcome& out) {
  // Weighted max-min fairness with per-flow caps, one water-filling pass
  // over the persistently maintained (cap/weight, id) order: a flow whose
  // cap is below the running fair level keeps its cap, everyone after
  // shares the leftovers in proportion to weight. The weight sum is taken
  // fresh over the id-ordered member list — NOT kept as a running
  // aggregate — so the fill arithmetic is bit-identical to a from-scratch
  // water-fill of the same members (the churn-equivalence property test
  // holds to the last ulp).
  //
  // Two passes over the members. The id-ordered pass banks rate × elapsed
  // at the old rates and sums the weights; the fill-order pass sets the new
  // rates and tracks the earliest completion. Each accumulator sees its
  // operands in the same order as separate accrue / sum / fill / scan
  // passes would, so the results are bit-identical to those.
  const double dt_s = take_accrual_window(c);
  const bool bank = dt_s > 0.0;
  double weight_left = 0.0;
  for (SessionId id : c.flows) {
    if (bank) accrue_flow(id, dt_s, out);
    weight_left += arena_.weight(id);
  }

  double remaining = c.capacity_bps;
  // Next rate-change point this cell generates on its own: the earliest
  // fluid completion at the new rates. min is exact, so visit order does
  // not matter.
  double min_dt_s = kInf;
  for (SessionId id : c.order) {
    const double w = arena_.weight(id);
    double rate = 0.0;
    if (remaining > 0.0 && weight_left > 0.0) {
      const double fair = remaining * w / weight_left;
      const double cap = arena_.cap_bps(id);
      rate = (cap > 0.0 && cap < fair) ? cap : fair;
    }
    remaining -= rate;
    weight_left -= w;
    const FlowMode mode = arena_.mode(id);
    if (mode == FlowMode::Packet) {
      // Ghost: record the share for the packet lane when it moves. The
      // callback itself runs at commit time on the main thread.
      if (rate != arena_.rate_bps(id)) {
        arena_.rate_bps(id) = rate;
        out.ghost_changes.emplace_back(id, rate);
      }
      continue;
    }
    arena_.rate_bps(id) = rate;
    if (mode == FlowMode::Fluid && rate > 0.0) {
      const double dt = arena_.residual_bytes(id) * 8.0 / rate;
      min_dt_s = std::min(min_dt_s, std::max(dt, 0.0));
    }
  }
  out.min_completion_s = min_dt_s;
}

void FluidEngine::commit_outcome(std::uint32_t cell_id, CellOutcome& out) {
  fold_ledger(out);
  ++rate_events_;

  Cell& c = cells_[cell_id];
  c.next_completion.cancel();
  if (out.min_completion_s != kInf) {
    c.next_completion = sim_.schedule(Duration::seconds(out.min_completion_s) + kEventGuard,
                                      [this, cell_id] { fire(cell_id); });
  }
  if (on_rate_share) {
    const std::uint64_t seq = c.fill_seq;
    for (const auto& [id, rate] : out.ghost_changes) {
      if (c.fill_seq == seq) {
        on_rate_share(id, rate);
      } else if (arena_.mode(id) == FlowMode::Packet) {
        // A handler above demoted/promoted in THIS cell: fill_cell_now has
        // already committed fresh shares, so our remaining entries are
        // stale. Replay each at the current arena share (the inline fill
        // only reported ghosts that moved relative to values we wrote, so
        // skipping would lose updates), dropping flows no longer in packet
        // mode.
        on_rate_share(id, arena_.rate_bps(id));
      }
    }
  }
}

void FluidEngine::fill_cell_now(std::uint32_t cell_id) {
  Cell& c = cells_[cell_id];
  c.dirty = false;  // a stale drain_queue_ entry just becomes a no-op
  // Invalidate any not-yet-committed outcome the current drain holds for
  // this cell: this fill is fresher (see the supersession check in drain()).
  ++c.fill_seq;
  // Local outcome, not a shared scratch: an on_rate_share handler fired by
  // the commit may re-enter the engine (e.g. a cap change), and a nested
  // fill must not clobber the outcome being committed.
  CellOutcome out;
  out.reset();
  fill_cell(c, out);
  commit_outcome(cell_id, out);
}

// --- dirty-cell epochs ------------------------------------------------------

void FluidEngine::mark_dirty(std::uint32_t cell_id) {
  Cell& c = cells_[cell_id];
  c.dirty = true;
  if (!c.queued) {
    c.queued = true;
    drain_queue_.push_back(cell_id);
  }
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    // Zero-delay: runs at THIS timestamp, after every already-queued event
    // at it — so a burst of same-instant churn (an epoch of shaper
    // resamples, a fault demoting a whole cell) coalesces into one fill
    // per dirty cell. No sim time passes before the fill, so deferral
    // never misattributes a single byte.
    drain_event_ = sim_.schedule(Duration::zero(), [this] { drain(); });
  }
}

void FluidEngine::drain() {
  drain_scheduled_ = false;
  if (drain_queue_.empty()) return;

  // Snapshot this epoch's dirty cells in ascending cell-id order — the
  // commit order, and therefore the event-scheduling and callback order,
  // is independent of the order mutations happened to queue them.
  drain_cells_.clear();
  for (std::uint32_t cell_id : drain_queue_) {
    Cell& c = cells_[cell_id];
    c.queued = false;
    if (c.dirty) {
      c.dirty = false;
      drain_cells_.push_back(cell_id);
    }
  }
  drain_queue_.clear();
  std::sort(drain_cells_.begin(), drain_cells_.end());

  const std::size_t n = drain_cells_.size();
  if (drain_outcomes_.size() < n) drain_outcomes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    drain_outcomes_[i].reset();
    // Stamp the outcome with the cell's fill generation; fill_cell_now can
    // only run from the main-thread commit loop below, so nothing moves the
    // stamp between here and the cell's fill.
    drain_outcomes_[i].fill_seq = cells_[drain_cells_[i]].fill_seq;
  }

  if (pool_ && n > 1) {
    // Parallel phase: workers write only their own cell's arena rows and
    // outcome slot; the Simulator is never touched off-thread (the main
    // thread is parked inside run() until every fill is done).
    pool_->run(n, [this](std::size_t i) {
      fill_cell(cells_[drain_cells_[i]], drain_outcomes_[i]);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) fill_cell(cells_[drain_cells_[i]], drain_outcomes_[i]);
  }

  // Serial commit in ascending cell-id order: ledger reduction, completion
  // event scheduling, and ghost-share callbacks happen in the same order at
  // any thread count — bit-identical to the serial engine. A callback that
  // re-dirties a cell schedules a fresh drain event at this timestamp.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell_id = drain_cells_[i];
    CellOutcome& out = drain_outcomes_[i];
    if (cells_[cell_id].fill_seq != out.fill_seq) {
      // An earlier commit's callback demoted/promoted a flow in this cell,
      // and fill_cell_now already committed fresh rates, a fresh completion
      // event, and fresh ghost shares. Committing this outcome would cancel
      // that event and replay stale shares — keep only its ledger deltas,
      // which the inline fill cannot have banked (no sim time passed since
      // our fill, so its accrual window was empty).
      fold_ledger(out);
      if (on_rate_share) {
        // The inline fill records ghost changes against the arena values OUR
        // fill wrote — which the consumer never heard — so a share this
        // outcome moved may look "unchanged" to it and go unpublished.
        // Replay the CURRENT arena share (never this outcome's stale value)
        // for each ghost we touched, skipping flows the callbacks meanwhile
        // promoted or finished.
        for (const auto& [id, stale_rate] : out.ghost_changes) {
          (void)stale_rate;
          if (arena_.mode(id) == FlowMode::Packet) on_rate_share(id, arena_.rate_bps(id));
        }
      }
      continue;
    }
    commit_outcome(cell_id, out);
  }
}

// --- completion -------------------------------------------------------------

void FluidEngine::fire(std::uint32_t cell_id) {
  Cell& c = cells_[cell_id];

  // One pass in SessionId order: bank each fluid flow's bytes, then check
  // whether it reached its demand (ties complete together, in SessionId
  // order — the member list is sorted). The scratch buffer is engine-level:
  // fire() runs hundreds of thousands of times in a 1M-UE run and must not
  // heap-allocate per completion.
  const double dt_s = take_accrual_window(c);
  const bool bank = dt_s > 0.0;
  CellOutcome accrued;
  accrued.reset();
  scratch_done_.clear();
  for (SessionId id : c.flows) {
    if (arena_.mode(id) != FlowMode::Fluid) continue;
    if (bank) accrue_flow(id, dt_s, accrued);
    if (arena_.residual_bytes(id) <= kCompleteEpsBytes) scratch_done_.push_back(id);
  }
  fold_ledger(accrued);
  for (SessionId id : scratch_done_) {
    // The sub-epsilon remainder is the final segment, delivered now.
    segment_bytes_ += arena_.residual_bytes(id);
    arena_.delivered_bytes(id) = arena_.demand_bytes(id);
    arena_.mode(id) = FlowMode::Done;
    arena_.rate_bps(id) = 0.0;
    arena_.finish_ns(id) = sim_.now().nanos();
    remove_member(c, id);
    --active_fluid_;
    ++completions_;
  }
  mark_dirty(cell_id);
  if (on_complete) {
    // on_complete may start/demote/handover flows; those marks coalesce
    // into the drain already scheduled above.
    for (SessionId id : scratch_done_) on_complete(id);
  }
}

// --- membership -------------------------------------------------------------

void FluidEngine::insert_member(Cell& c, SessionId id) {
  auto it = std::lower_bound(c.flows.begin(), c.flows.end(), id);
  c.flows.insert(it, id);
  insert_order(c, id, order_key(id));
}

void FluidEngine::remove_member(Cell& c, SessionId id) {
  auto it = std::lower_bound(c.flows.begin(), c.flows.end(), id);
  assert(it != c.flows.end() && *it == id);
  c.flows.erase(it);
  remove_order(c, id, order_key(id));
}

void FluidEngine::insert_order(Cell& c, SessionId id, double key) {
  auto it = std::lower_bound(c.order.begin(), c.order.end(), id,
                             [&](SessionId other, SessionId target) {
                               const double ko = order_key(other);
                               if (ko != key) return ko < key;
                               return other < target;
                             });
  c.order.insert(it, id);
}

void FluidEngine::remove_order(Cell& c, SessionId id, double key) {
  auto it = std::lower_bound(c.order.begin(), c.order.end(), id,
                             [&](SessionId other, SessionId target) {
                               const double ko = order_key(other);
                               if (ko != key) return ko < key;
                               return other < target;
                             });
  assert(it != c.order.end() && *it == id);
  c.order.erase(it);
}

}  // namespace cb::traffic
