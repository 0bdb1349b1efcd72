// Host speed reference: a fixed amount of work that uses no simulator code.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent for minutes at a time, which no median over one run can remove.
// cbperf times this reference between workload iterations and scales each
// iteration's host time by how much slower or faster the reference ran than
// its nominal time. The reference never changes with the simulator, so a
// change to the simulator still moves the scaled times one for one.
#pragma once

namespace perfbench {

/// Times of the reference's parts, in seconds. Each part stresses what the
/// simulator leans on: random access to a table larger than the private
/// caches, an event queue with heap-allocated callbacks and ordered-map
/// churn, 64x64-bit multiply chains as in big-number arithmetic, and
/// indirect calls spread over more code than the instruction cache holds.
struct HostSpeed {
  double memory_s = 0.0;
  double events_s = 0.0;
  double multiply_s = 0.0;
  double code_s = 0.0;

  /// How much slower than nominal the host ran: the geometric mean of each
  /// part's time over its nominal time (1 = nominal speed).
  double slowdown() const;
};

/// Run the reference once (about 130 ms at nominal speed).
HostSpeed measure_host_speed();

/// The part-wise mean of two measurements (the ones around an iteration).
HostSpeed mean(const HostSpeed& a, const HostSpeed& b);

}  // namespace perfbench
