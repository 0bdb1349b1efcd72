// In-memory span recorder for the traced benchmark run.
//
// Spans wrap the benchmark's own calls into each simulator layer (set-up,
// start, run slices, completion callbacks, isolated probes). They are kept
// in memory and written once at the end as Chrome trace-event JSON, next to
// a per-layer self-time table. A null Tracer* records nothing, which is how
// the timed end-to-end run stays untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  int run_id = 0;   // the workload iteration the span belongs to
};

class Tracer {
 public:
  Tracer();

  int begin(std::string name, std::string layer);
  void end(int id);

  /// Every later span is tagged with this iteration id.
  void set_run_id(int run_id) { run_id_ = run_id; }

  /// Sum of durations of the current iteration's spans named `name`, in s.
  double total_s(const std::string& name) const;
  /// Number of the current iteration's spans named `name`.
  std::size_t count(const std::string& name) const;

  /// Self time per layer (a span's duration minus the part its children
  /// cover), over the spans of iteration `run_id` under roots named `root`.
  std::map<std::string, double> self_time_by_layer(const std::string& root, int run_id) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
  int run_id_ = 0;
};

/// RAII span; does nothing when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string layer)
      : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name), std::move(layer)) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
