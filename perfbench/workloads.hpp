// The benchmark's four workloads. Each call builds one seeded world through
// the simulator's public API, runs it, checks its outputs and returns what
// was measured. Host times come from std::chrono::steady_clock; every other
// number is simulated and repeats bit-for-bit for a given seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Outcome {
  // Host time: construction and start() before the first event, then the
  // run* calls plus result collection.
  double setup_s = 0.0;
  double run_s = 0.0;
  // How much slower than nominal the host ran around this iteration (set by
  // cbperf from hostspeed.hpp; 1 for the warm-up).
  double slowdown = 1.0;

  // Simulated results (identical for a given seed).
  double sim_s = 0.0;             // simulated seconds the run covered
  std::uint64_t attempted = 0;    // operations attempted
  std::uint64_t failed = 0;       // of which not completed
  std::uint64_t ops = 0;          // completed operations
  double p50_ms = 0.0;            // median latency of an operation
  double tail_ms = 0.0;           // highest percentile the sample supports
  std::string tail_label;         // which percentile tail_ms is
  std::size_t samples = 0;        // latency sample count
  double goodput_mbps = 0.0;      // payload delivered per simulated second
  std::uint64_t fingerprint = 0;  // determinism witness
  std::vector<std::string> errors;  // failed output checks

  // Per-layer numbers: counters from the program, span-derived costs and
  // probe results (probes only when requested).
  std::map<std::string, double> layer;
  // Workload-specific names of the end-to-end metrics used in the docs
  // (attach_p95_ms -> tail_ms, ...) and facts about the input, for the report.
  std::vector<std::pair<std::string, std::string>> aliases;
  std::string note;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// A one-line description of the workload's fixed sizes (part of the
/// determinism key: a size change must not compare against old results).
std::string workload_params(const std::string& name);

/// Run one iteration. A null `tracer` records no spans (the end-to-end run).
/// With `probes`, the isolated layer probes run afterwards on private copies.
Outcome run_workload(const std::string& name, std::uint64_t seed, Tracer* tracer, bool probes);

}  // namespace perfbench
