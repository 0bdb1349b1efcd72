// cbperf — the benchmark binary (run.py builds and invokes it).
//
//   cbperf --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Repeats one workload, same seed, for about S seconds of host time (at
// least a few iterations) and reports medians. Every iteration must pass
// its output checks and reproduce the first iteration's fingerprint.
// The end-to-end host times are scaled to nominal host speed: a reference
// workload (hostspeed.hpp) runs between iterations, and each iteration's
// times are divided by the mean slowdown measured just before and after it.
//
// --trace 0: the end-to-end metrics, measured with no spans recorded.
// --trace 1: untraced and traced iterations alternate; the traced ones
//   record spans around each call into a layer, the first of them also runs
//   the isolated layer probes, and the per-layer metrics come from them.
//   --trace-out writes the spans as Chrome trace-event JSON.
//
// The last stdout line is the result JSON; the line before it is
// "witness <workload> <seed> <params> <fingerprint>".
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "hostspeed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},      {"peak_rss_mb", "MB"}, {"ok_ratio", "ratio"},
    {"ops_per_s", "1/s"},  {"sim_per_wall", "s/s"}, {"p50_ms", "ms"},
    {"tail_ms", "ms"},     {"goodput_mbps", "Mb/s"},
};

const std::vector<Metric> kPerLayer = {
    {"sim.events", "count"},
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"net.nodes", "count"},
    {"net.recompute_calls", "count"},
    {"net.recompute_ms", "ms"},
    {"est.net_run_s", "s"},
    {"crypto.keygen_s", "s"},
    {"crypto.keygen_ms", "ms"},
    {"crypto.rsa_sign_us", "us"},
    {"crypto.rsa_verify_us", "us"},
    {"crypto.box_open_us", "us"},
    {"sap.ue_request_us", "us"},
    {"sap.ue_response_us", "us"},
    {"sap.broker_us", "us"},
    {"sap.telco_us", "us"},
    {"est.sap_run_s", "s"},
    {"broker.sap.requests", "count"},
    {"broker.sap.ok", "count"},
    {"broker.sap_latency_ms.p50", "ms"},
    {"broker.sap_latency_ms.p99", "ms"},
    {"broker.reports.received", "count"},
    {"broker.reports.ingested", "count"},
    {"broker.reports.deduped", "count"},
    {"broker.reports.rejected", "count"},
    {"broker.pairs.compared", "count"},
    {"broker.takeovers", "count"},
    {"broker.ingest_ratio", "ratio"},
    {"loadgen.tx_per_report", "ratio"},
    {"traffic.rate_events", "count"},
    {"traffic.events_per_flow", "ratio"},
    {"traffic.arena_mb", "MB"},
    {"traffic.arrival_s", "s"},
    {"traffic.steady_s", "s"},
    {"tcp.segments.sent", "count"},
    {"tcp.retransmits", "count"},
    {"tcp.rto", "count"},
    {"tcp.retx_ratio", "ratio"},
    {"mptcp.subflows.opened", "count"},
    {"mptcp.subflows.switches", "count"},
    {"transport.us_per_segment", "us"},
    {"ran.measurement_ticks", "count"},
    {"ran.cell_changes", "count"},
    {"ue_agent.attach.attempts", "count"},
    {"ue_agent.attach.retries", "count"},
    {"ue_agent.reattach_latency_ms.p50", "ms"},
    {"self.scenario_s", "s"},
    {"self.crypto_s", "s"},
    {"self.net_s", "s"},
    {"self.cellbricks_s", "s"},
    {"self.sap_s", "s"},
    {"self.traffic_s", "s"},
    {"self.sim_s", "s"},
    {"trace.overhead_pct", "%"},
    {"host.slowdown", "ratio"},
};

// Layers of the self-time table, in print order.
const std::vector<std::string> kLayers = {"scenario", "crypto", "net", "cellbricks",
                                          "sap",      "traffic", "sim"};

int usage() {
  std::fprintf(stderr,
               "usage: cbperf --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shortest round-trip decimal form (every digit that was measured).
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (argc % 2 == 0 || std::find(names.begin(), names.end(), workload) == names.end() ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  // Iteration 0 is an untraced warm-up: it sets the fingerprint and the
  // peak RSS (one iteration in a fresh process, before the host-speed
  // reference first allocates its table) but no host-time metric.
  // Then untraced iterations only (trace 0), or untraced and traced
  // alternating (trace 1): at least kMinEach of each kind, then until
  // `seconds` pass.
  constexpr std::size_t kMinEach = 3;
  const auto t_start = Clock::now();
  Tracer tracer;
  double rss_mb = 0.0;
  std::vector<Outcome> plain, traced;
  std::vector<int> traced_ids;  // the tracer's run id of each traced iteration
  std::set<std::string> errors;
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0, failed = 0;
  HostSpeed speed_before;
  for (int i = 0;; ++i) {
    // Stop once the minimum is met and one more iteration would end past
    // `seconds`, judged by the mean iteration so far.
    const bool enough =
        plain.size() >= kMinEach + 1 && (trace == 0 || traced.size() >= kMinEach);
    const double elapsed = seconds_since(t_start);
    if (enough && elapsed * (1.0 + 1.0 / i) > seconds) break;
    const bool traced_iter = trace == 1 && i % 2 == 1;
    tracer.set_run_id(i);
    Outcome o = run_workload(workload, seed, traced_iter ? &tracer : nullptr,
                             traced_iter && traced.empty());
    errors.insert(o.errors.begin(), o.errors.end());
    if (i == 0) {
      fingerprint = o.fingerprint;
      rss_mb = peak_rss_mb();
    } else if (o.fingerprint != fingerprint) {
      errors.insert("iteration " + std::to_string(i) + " fingerprint differs from iteration 0");
    }
    if (i == 0) measure_host_speed();  // first touch of its table and heap, untimed
    const HostSpeed speed_after = measure_host_speed();
    if (i > 0) o.slowdown = mean(speed_before, speed_after).slowdown();
    speed_before = speed_after;
    attempted += o.attempted;
    failed += o.failed;
    std::printf("iteration %d%s: setup %.4f s, run %.4f s, host slowdown %.3f\n", i,
                traced_iter ? " (traced)" : "", o.setup_s, o.run_s, o.slowdown);
    if (traced_iter) traced_ids.push_back(i);
    (traced_iter ? traced : plain).push_back(std::move(o));
  }

  const Outcome first = plain.front();
  plain.erase(plain.begin());  // the warm-up
  std::vector<std::pair<std::string, double>> metrics;
  std::printf("workload %s  seed %llu  %s  iterations 1 warm-up, %zu untraced, %zu traced\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              workload_params(workload).c_str(), plain.size(), traced.size());

  // Host times are medians over the iterations.
  auto host_median = [](const std::vector<Outcome>& v, auto fn) {
    std::vector<double> xs;
    for (const Outcome& o : v) xs.push_back(fn(o));
    return median(xs);
  };
  auto run_s = [](const Outcome& o) { return o.run_s; };
  auto slowdown = [](const Outcome& o) { return o.slowdown; };
  auto nominal_run_s = [](const Outcome& o) { return o.run_s / o.slowdown; };
  auto nominal_setup_s = [](const Outcome& o) { return o.setup_s / o.slowdown; };

  if (trace == 0) {
    const double run_phase_s = host_median(plain, nominal_run_s);
    metrics = {
        {"setup_s", host_median(plain, nominal_setup_s)},
        {"peak_rss_mb", rss_mb},
        {"ok_ratio", 1.0 - static_cast<double>(first.failed) /
                               static_cast<double>(std::max<std::uint64_t>(first.attempted, 1))},
        {"ops_per_s", static_cast<double>(first.ops) / run_phase_s},
        {"sim_per_wall", first.sim_s / run_phase_s},
        {"p50_ms", first.p50_ms},
        {"tail_ms", first.tail_ms},
        {"goodput_mbps", first.goodput_mbps},
    };
    std::printf("end-to-end (host: median over iterations at nominal host speed; latency sample "
                "%zu, tail = %s)\n",
                first.samples, first.tail_label.c_str());
    for (std::size_t k = 0; k < kEndToEnd.size(); ++k) {
      std::printf("  %-14s %14.6g %s\n", kEndToEnd[k].name, metrics[k].second,
                  kEndToEnd[k].unit);
    }
    std::printf("under this workload's names (%s):\n", first.note.c_str());
    for (const auto& [alias, generic] : first.aliases) {
      for (const auto& [k, v] : metrics) {
        if (k == generic) std::printf("  %-14s %14.6g\n", alias.c_str(), v);
      }
    }
    std::printf("  run_phase_s    %14.6g s (median, nominal host speed)\n", run_phase_s);
    std::printf("  wall run_phase %14.6g s (median, as measured; host slowdown %.3f)\n",
                host_median(plain, run_s), host_median(plain, slowdown));
  } else {
    // Per-layer values: medians over the traced iterations of every key an
    // iteration reported, then the span-derived ones.
    std::map<std::string, std::vector<double>> by_key;
    for (std::size_t t = 0; t < traced.size(); ++t) {
      std::map<std::string, double> layer = traced[t].layer;
      const auto self = tracer.self_time_by_layer("iteration", traced_ids[t]);
      for (const std::string& l : kLayers) {
        const auto it = self.find(l);
        layer["self." + l + "_s"] = it == self.end() ? 0.0 : it->second;
      }
      layer["sim.run_s"] = layer["self.sim_s"];
      const double events = layer["sim.events"];
      layer["sim.ns_per_event"] = events > 0 ? layer["sim.run_s"] / events * 1e9 : 0.0;
      const double segs = layer["tcp.segments.sent"];
      layer["transport.us_per_segment"] = segs > 0 ? layer["sim.run_s"] / segs * 1e6 : 0.0;
      for (const auto& [k, v] : layer) by_key[k].push_back(v);
    }
    by_key["trace.overhead_pct"] = {
        (host_median(traced, nominal_run_s) / host_median(plain, nominal_run_s) - 1.0) * 100.0};
    by_key["host.slowdown"] = {host_median(plain, slowdown)};
    for (const Metric& m : kPerLayer) {
      const auto it = by_key.find(m.name);
      metrics.emplace_back(m.name, it == by_key.end() ? 0.0 : median(it->second));
    }

    auto value = [&](const std::string& name) {
      for (const auto& [k, v] : metrics) {
        if (k == name) return v;
      }
      return 0.0;
    };
    double total = 0.0;
    for (const std::string& l : kLayers) total += value("self." + l + "_s");
    std::printf("self time by layer (median traced iteration, host)\n");
    for (const std::string& l : kLayers) {
      const double v = value("self." + l + "_s");
      std::printf("  %-11s %10.4f s  %5.1f%%\n", l.c_str(), v, total > 0 ? 100 * v / total : 0);
    }
    std::printf("host time inside the run, estimated as probe cost per call x calls\n");
    std::printf("  net  route recompute %10.4f s  (%g calls x %.4f ms)\n",
                value("est.net_run_s"), value("net.recompute_calls"), value("net.recompute_ms"));
    std::printf("  sap  bTelco+broker   %10.4f s  (%g attaches x %.1f us, + UE responses)\n",
                value("est.sap_run_s"), value("broker.sap.requests"),
                value("sap.broker_us") + value("sap.telco_us"));
    std::printf("per-layer\n");
    for (std::size_t k = 0; k < kPerLayer.size(); ++k) {
      std::printf("  %-34s %14.6g %s\n", kPerLayer[k].name, metrics[k].second,
                  kPerLayer[k].unit);
    }
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      f << tracer.chrome_json();
      if (!f) errors.insert("cannot write " + trace_out);
    }
  }

  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("witness %s %llu %s %016llx\n", workload.c_str(),
              static_cast<unsigned long long>(seed), workload_params(workload).c_str(),
              static_cast<unsigned long long>(fingerprint));

  const auto& defs = trace == 0 ? kEndToEnd : kPerLayer;
  std::string json = std::string("{\"correct\": ") + (errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t k = 0; k < defs.size(); ++k) {
    if (k) json += ", ";
    json += std::string("\"") + defs[k].name + "\": {\"value\": " + num(metrics[k].second) +
            ", \"unit\": \"" + defs[k].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
