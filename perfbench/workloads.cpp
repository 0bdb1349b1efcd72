#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "apps/iperf.hpp"
#include "cellbricks/billing.hpp"
#include "cellbricks/brokerd.hpp"
#include "cellbricks/btelco.hpp"
#include "cellbricks/sap.hpp"
#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "crypto/box.hpp"
#include "crypto/cert.hpp"
#include "crypto/rsa.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "scenario/broker_loadgen.hpp"
#include "scenario/routes.hpp"
#include "scenario/scale_traffic.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace cb;

namespace {

// --- Workload sizes ---------------------------------------------------------
// One iteration of each workload takes about 1-3 s of host time on a 4-core
// x86 box, so a run of a few seconds holds several iterations.

constexpr int kStormUes = 200;                 // p95 keeps 10 samples beyond it
constexpr std::size_t kStormRsaBits = 512;
constexpr double kStormCloudRttMs = 7.2;       // us-west-1 placement
constexpr double kStormWindowMs = 100.0;       // requests due uniformly in [0, 100 ms)

constexpr int kBrokerShards = 2;
constexpr int kBrokerClients = 48;
constexpr double kBrokerIntervalMs = 80.0;     // 2 * 48 / 80 ms = 1200 reports/s
constexpr double kBrokerIntervalJitter = 0.025;  // seed-drawn, +-2.5%
constexpr double kBrokerLoadS = 8.0;
constexpr double kBrokerDrainS = 60.0;

constexpr int kFluidUes = 50'000;
constexpr double kFluidWindowS = 10.0;         // arrival window
constexpr double kFluidMobilityS = 60.0;       // mean inter-handover time

constexpr double kDriveSimS = 600.0;           // highway/night, MTTHO ~25.7 s
constexpr double kDriveWarmupS = 3.0;
constexpr double kDriveChunkBytes = 10e6;      // the drive's latency: time per 10 MB

// Probe repetitions.
constexpr int kProbeKeygens = 8;
constexpr int kProbeCryptoCalls = 200;
constexpr int kProbeSapCalls = 48;
constexpr int kProbeRouteCalls = 5;

// --- Small helpers ------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}
void fnv_mix(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_mix(h, &bits, sizeof bits);
}
void fnv_mix(std::uint64_t& h, std::uint64_t v) { fnv_mix(h, &v, sizeof v); }

double counter(const obs::Registry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0.0;
}

double hist_pct(const obs::Registry& reg, const char* name, double p) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h ? h->percentile(p) : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The broker's SAP counters and latency histogram (queue wait + service).
void record_broker_sap(const obs::Registry& reg, Outcome& out) {
  out.layer["broker.sap.requests"] = counter(reg, "broker.sap.requests");
  out.layer["broker.sap.ok"] = counter(reg, "broker.sap.ok");
  out.layer["broker.sap_latency_ms.p50"] = hist_pct(reg, "broker.sap_latency_ms", 50);
  out.layer["broker.sap_latency_ms.p99"] = hist_pct(reg, "broker.sap_latency_ms", 99);
}

/// Mean host microseconds per call of `fn` over `calls` calls, in one span.
double time_calls_us(Tracer* tr, const char* span, const char* layer, int calls,
                     const std::function<void(int)>& fn) {
  Scope s(tr, span, layer);
  const auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) fn(i);
  return seconds_since(t0) * 1e6 / calls;
}

/// Median host milliseconds of `calls` calls of `fn`.
double median_call_ms(Tracer* tr, const char* span, const char* layer, int calls,
                      const std::function<void()>& fn) {
  Scope s(tr, span, layer);
  std::vector<double> ms;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::nth_element(ms.begin(), ms.begin() + static_cast<long>(ms.size() / 2), ms.end());
  return ms[ms.size() / 2];
}

/// RSA keygen, sign, verify and sealed-box open at `bits`, on private keys
/// drawn from a probe-only RNG; `box_plain` sizes the sealed box like the
/// workload's own messages.
void probe_crypto(Tracer* tr, std::size_t bits, std::size_t box_plain, Outcome& out) {
  Rng rng(0x9B0BE);
  out.layer["crypto.keygen_ms"] =
      time_calls_us(tr, "probe.crypto.keygen", "crypto", kProbeKeygens,
                    [&](int) { crypto::RsaKeyPair::generate(rng, bits); }) / 1e3;
  const auto keys = crypto::RsaKeyPair::generate(rng, bits);
  const Bytes msg = rng.random_bytes(box_plain);
  const Bytes sig = keys.sign(msg);
  const Bytes box = crypto::seal(keys.public_key(), msg, rng);
  bool ok = true;
  out.layer["crypto.rsa_sign_us"] = time_calls_us(
      tr, "probe.crypto.rsa_sign", "crypto", kProbeCryptoCalls,
      [&](int) { ok &= !keys.sign(msg).empty(); });
  out.layer["crypto.rsa_verify_us"] = time_calls_us(
      tr, "probe.crypto.rsa_verify", "crypto", kProbeCryptoCalls,
      [&](int) { ok &= keys.public_key().verify(msg, sig); });
  out.layer["crypto.box_open_us"] = time_calls_us(
      tr, "probe.crypto.box_open", "crypto", kProbeCryptoCalls,
      [&](int) { ok &= crypto::open(keys, box).ok(); });
  if (!ok) out.errors.push_back("crypto probe: a sign/verify/open round trip failed");
}

std::string tail_label(double pct) {
  std::string label = "p";  // built in two steps: GCC 12 warns (-Wrestrict) on "p" + string
  label += std::to_string(static_cast<int>(pct));
  return label;
}

// --- attach_storm -----------------------------------------------------------
// N UEs attach at once through one bTelco to one Brokerd (the construction
// of scenario::run_attach_storm, CellBricks arm). Open loop: every request
// is due at a seed-drawn time in the first 100 ms, and its latency runs from
// that time.

const net::Ipv4Addr kStormCloudAddr(2, 2, 2, 2);

struct StormTopology {
  net::Node* tower = nullptr;
  net::Node* cloud = nullptr;
  std::vector<std::pair<net::Node*, net::Link*>> ues;  // node, radio link
};

/// Tower, cloud and N UE nodes with their links and routes.
StormTopology build_storm_topology(net::Network& network) {
  StormTopology t;
  t.tower = network.add_node("tower");
  t.cloud = network.add_node("cloud");
  network.register_address(kStormCloudAddr, t.cloud);
  network.register_address(net::Ipv4Addr(4, 0, 0, 1), t.tower);
  network.connect(t.tower, t.cloud,
                  net::LinkParams{.rate_bps = 1e9,
                                  .delay = Duration::millis(kStormCloudRttMs) / 2});
  for (int i = 0; i < kStormUes; ++i) {
    net::Node* node = network.add_node("ue-" + std::to_string(i));
    t.ues.emplace_back(node, network.connect(node, t.tower, net::LinkParams{.rate_bps = 50e6}));
  }
  network.recompute_routes();
  return t;
}

Outcome attach_storm(std::uint64_t seed, Tracer* tr, bool probes) {
  Outcome out;
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);

  const auto t_setup = Clock::now();
  std::optional<Scope> root(std::in_place, tr, "iteration", "bench");

  sim::Simulator sim(seed);
  net::Network network(sim);
  Rng key_rng = sim.rng().fork(0x570);
  const TimePoint forever = TimePoint::zero() + Duration::s(1e9);

  std::optional<crypto::CertificateAuthority> ca;
  crypto::RsaKeyPair broker_keys, telco_keys, ue_keys;
  crypto::Certificate broker_cert, telco_cert;
  StormTopology topo;
  std::unique_ptr<cellbricks::Brokerd> brokerd;
  std::unique_ptr<cellbricks::Btelco> telco;
  std::vector<std::unique_ptr<cellbricks::SapUe>> ues;
  {
    Scope setup(tr, "setup", "scenario");
    {
      Scope s(tr, "crypto.keygen", "crypto");
      const auto t0 = Clock::now();
      ca.emplace("root", key_rng, kStormRsaBits);
      broker_keys = crypto::RsaKeyPair::generate(key_rng, kStormRsaBits);
      telco_keys = crypto::RsaKeyPair::generate(key_rng, kStormRsaBits);
      ue_keys = crypto::RsaKeyPair::generate(key_rng, kStormRsaBits);
      broker_cert = ca->issue("broker", broker_keys.public_key(), TimePoint::zero(), forever);
      telco_cert = ca->issue("telco", telco_keys.public_key(), TimePoint::zero(), forever);
      out.layer["crypto.keygen_s"] = seconds_since(t0);
    }
    {
      Scope s(tr, "net.build", "net");
      topo = build_storm_topology(network);
    }
    {
      Scope s(tr, "cellbricks.build", "cellbricks");
      brokerd = std::make_unique<cellbricks::Brokerd>(
          *topo.cloud,
          cellbricks::SapBroker("broker", broker_keys, broker_cert, ca->public_key()));
      telco = std::make_unique<cellbricks::Btelco>(
          network, *topo.tower,
          cellbricks::SapTelco("telco", telco_keys, telco_cert, ca->public_key()), broker_cert,
          net::EndPoint{kStormCloudAddr, cellbricks::kBrokerPort});
      for (int i = 0; i < kStormUes; ++i) {
        const std::string id = "user-" + std::to_string(i);
        brokerd->add_subscriber(id, ue_keys.public_key());
        ues.push_back(std::make_unique<cellbricks::SapUe>(id, "broker",
                                                          crypto::RsaKeyPair(ue_keys),
                                                          broker_cert.key()));
      }
    }
  }

  // start: craft every request and schedule its hand-off to the bTelco at a
  // seed-drawn due time in the burst window.
  std::vector<double> latency_ms;
  std::vector<Bytes> requests;
  std::uint64_t response_bytes = 0;
  std::uint64_t response_digest = kFnvOffset;  // seed-dependent: keys and nonces
  TimePoint last_done = TimePoint::zero();
  int completed = 0;
  {
    Scope start(tr, "start", "scenario");
    Rng rng = sim.rng().fork(0x99);
    Rng due_rng = sim.rng().fork(0xD0E);
    for (std::size_t i = 0; i < ues.size(); ++i) {
      Bytes req;
      {
        Scope s(tr, "sap.make_auth_req", "sap");
        req = ues[i]->make_auth_req("telco", rng);
      }
      requests.push_back(req);
      const TimePoint due =
          TimePoint::zero() + Duration::millis(due_rng.uniform(0.0, kStormWindowMs));
      auto done = [&, tr, due, sap = ues[i].get()](
                      Result<std::pair<Bytes, net::Ipv4Addr>> result) {
        if (!result.ok()) {
          out.errors.push_back("attach_storm: bTelco refused an attach: " + result.error());
          return;
        }
        Scope s(tr, "sap.process_auth_resp", "sap");
        const auto session = sap->process_auth_resp(result.value().first);
        if (!session.ok()) {
          out.errors.push_back("attach_storm: SapUe rejected a response: " + session.error());
          return;
        }
        latency_ms.push_back((sim.now() - due).to_millis());
        last_done = sim.now();
        response_bytes += result.value().first.size();
        fnv_mix(response_digest, result.value().first.data(), result.value().first.size());
        ++completed;
      };
      sim.schedule_at(due, [&telco, &topo, i, req = std::move(req),
                            done = std::move(done)]() mutable {
        telco->handle_attach(std::move(req), topo.ues[i].first, topo.ues[i].second,
                             std::move(done));
      });
    }
  }
  out.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  {
    Scope run(tr, "run", "sim");
    sim.run_for(Duration::s(120));
  }
  out.run_s = seconds_since(t_run);
  root.reset();

  Summary lat;
  std::uint64_t h = kFnvOffset;
  for (double v : latency_ms) {
    lat.add(v);
    fnv_mix(h, v);
  }
  fnv_mix(h, static_cast<std::uint64_t>(completed));
  fnv_mix(h, sim.events_executed());
  fnv_mix(h, response_digest);
  out.fingerprint = h;
  out.attempted = kStormUes;
  out.ops = static_cast<std::uint64_t>(completed);
  out.failed = out.attempted - out.ops;
  if (completed != kStormUes) {
    out.errors.push_back("attach_storm: completed " + std::to_string(completed) + " of " +
                         std::to_string(kStormUes));
  }
  if (!lat.empty()) {
    out.sim_s = (last_done - TimePoint::zero()).to_seconds();
    out.p50_ms = lat.p50();
    out.tail_ms = lat.percentile(95);
    out.goodput_mbps = static_cast<double>(response_bytes) * 8.0 / out.sim_s / 1e6;
  }
  out.tail_label = tail_label(95);
  out.samples = lat.count();
  out.aliases = {{"attach_per_s", "ops_per_s"},
                 {"attach_p50_ms", "p50_ms"},
                 {"attach_p95_ms", "tail_ms"}};
  out.note = "N=" + std::to_string(kStormUes) + " UEs";

  const double installs = counter(reg, "btelco.attaches");
  out.layer["sim.events"] = static_cast<double>(sim.events_executed());
  out.layer["net.nodes"] = static_cast<double>(network.nodes().size());
  out.layer["net.recompute_calls"] = installs;  // one per session install
  record_broker_sap(reg, out);
  if (tr) {
    out.layer["sap.ue_request_us"] =
        tr->total_s("sap.make_auth_req") * 1e6 / kStormUes;
    out.layer["sap.ue_response_us"] =
        ratio(tr->total_s("sap.process_auth_resp") * 1e6,
              static_cast<double>(tr->count("sap.process_auth_resp")));
  }

  if (probes) {
    obs::ScopedRegistry off(nullptr);
    Scope p(tr, "probes", "bench");
    probe_crypto(tr, kStormRsaBits, requests.front().size(), out);

    // Route recomputation on a private copy of the final topology: the same
    // nodes and links, plus one proxy address per installed session.
    {
      sim::Simulator copy_sim(seed);
      net::Network copy(copy_sim);
      const StormTopology t = build_storm_topology(copy);
      const std::uint8_t subnet = cellbricks::Btelco::Config{}.ip_subnet;
      for (int i = 0; i < static_cast<int>(installs); ++i) {
        copy.register_address(copy.alloc_address(subnet), t.tower, /*proxy_only=*/true);
      }
      out.layer["net.recompute_ms"] = median_call_ms(
          tr, "probe.net.recompute_routes", "net", kProbeRouteCalls,
          [&] { copy.recompute_routes(); });
    }

    // SAP at the bTelco and the broker, on private instances holding the
    // same keys, fed this run's own UE requests.
    {
      cellbricks::SapTelco p_telco("telco", telco_keys, telco_cert, ca->public_key());
      cellbricks::SapBroker p_broker("broker", broker_keys, broker_cert, ca->public_key());
      for (int i = 0; i < kStormUes; ++i) {
        p_broker.add_subscriber("user-" + std::to_string(i), ue_keys.public_key());
      }
      const int n = std::min<int>(kProbeSapCalls, static_cast<int>(requests.size()));
      const cellbricks::QosCap cap = cellbricks::Btelco::Config{}.qos_cap;
      const cellbricks::QosInfo qos = cellbricks::Brokerd::Config{}.default_qos;
      std::vector<Bytes> req_t(static_cast<std::size_t>(n));
      std::vector<Bytes> resp_t(static_cast<std::size_t>(n));
      Rng rng(seed ^ 0x5A9);
      bool ok = true;
      const double telco_req_us = time_calls_us(
          tr, "probe.sap.telco_request", "sap", n, [&](int i) {
            req_t[static_cast<std::size_t>(i)] =
                p_telco.make_auth_req_t(requests[static_cast<std::size_t>(i)], cap);
          });
      out.layer["sap.broker_us"] = time_calls_us(
          tr, "probe.sap.broker", "sap", n, [&](int i) {
            auto d = p_broker.process_auth_req(
                req_t[static_cast<std::size_t>(i)], TimePoint::zero(), rng, qos,
                [](const std::string&, const std::string&) { return true; });
            if (d.ok()) {
              resp_t[static_cast<std::size_t>(i)] = d.value().auth_resp_t;
            } else {
              ok = false;
            }
          });
      const double telco_resp_us = time_calls_us(
          tr, "probe.sap.telco_response", "sap", n, [&](int i) {
            ok &= p_telco.process_auth_resp(resp_t[static_cast<std::size_t>(i)], broker_cert,
                                            TimePoint::zero()).ok();
          });
      if (!ok) out.errors.push_back("attach_storm: SAP probe failed on the run's requests");
      out.layer["sap.telco_us"] = telco_req_us + telco_resp_us;
    }

    // In-run host time by layer, estimated as probe cost per call x calls.
    out.layer["est.net_run_s"] = installs * out.layer["net.recompute_ms"] / 1e3;
    out.layer["est.sap_run_s"] =
        out.layer["broker.sap.requests"] *
            (out.layer["sap.broker_us"] + out.layer["sap.telco_us"]) / 1e6 +
        (tr ? tr->total_s("sap.process_auth_resp") : 0.0);
  }
  return out;
}

// --- broker_ingest ----------------------------------------------------------
// BrokerLoadgen against a 2-shard BrokerCluster: 48 UE/bTelco client pairs
// each send one report per side every 80 ms (open loop, 1200 reports/s),
// then the run drains retries and pair sweeps.

Outcome broker_ingest(std::uint64_t seed, Tracer* tr, bool probes) {
  Outcome out;
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);

  scenario::BrokerLoadgenConfig cfg;
  cfg.n_shards = kBrokerShards;
  cfg.n_clients = kBrokerClients;
  Rng input_rng(seed);
  cfg.report_interval = Duration::millis(
      kBrokerIntervalMs *
      input_rng.uniform(1.0 - kBrokerIntervalJitter, 1.0 + kBrokerIntervalJitter));
  cfg.duration_s = kBrokerLoadS;
  cfg.drain_s = kBrokerDrainS;
  cfg.seed = seed;

  std::optional<Scope> root(std::in_place, tr, "iteration", "bench");
  const auto t_setup = Clock::now();
  std::optional<scenario::BrokerLoadgen> lg;
  {
    Scope s(tr, "setup", "scenario");
    lg.emplace(cfg);
  }
  out.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  scenario::BrokerLoadgenResult r;
  {
    Scope s(tr, "run", "sim");
    r = lg->run();
  }
  out.run_s = seconds_since(t_run);
  root.reset();

  out.sim_s = lg->simulator().now().to_seconds();
  out.fingerprint = r.fingerprint();
  out.attempted = r.reports_sent;
  out.failed = r.reports_sent - std::min(r.reports_acked, r.reports_sent);
  out.ops = r.reports_ingested;
  out.p50_ms = r.ack_p50_ms;
  out.tail_ms = r.ack_p99_ms;
  out.tail_label = tail_label(99);
  out.samples = r.reports_acked;
  const std::size_t report_bytes = cellbricks::TrafficReport{}.serialize().size();
  out.goodput_mbps =
      static_cast<double>(r.reports_acked * report_bytes) * 8.0 / kBrokerLoadS / 1e6;
  if (r.verdicts_lost != 0) {
    out.errors.push_back("broker_ingest: " + std::to_string(r.verdicts_lost) +
                         " verdicts lost");
  }
  if (r.verdict_conflicts != 0) {
    out.errors.push_back("broker_ingest: " + std::to_string(r.verdict_conflicts) +
                         " verdict conflicts");
  }
  if (r.sessions_issued != static_cast<std::uint64_t>(kBrokerClients)) {
    out.errors.push_back("broker_ingest: " + std::to_string(r.sessions_issued) + " of " +
                         std::to_string(kBrokerClients) + " clients attached");
  }
  out.aliases = {{"report_per_s", "ops_per_s"},
                 {"ack_p50_ms", "p50_ms"},
                 {"ack_p99_ms", "tail_ms"}};
  out.note = std::to_string(r.reports_sent) + " reports";

  const double received = counter(reg, "broker.reports.received");
  out.layer["sim.events"] = static_cast<double>(r.events_executed);
  out.layer["net.nodes"] = 1.0 + kBrokerShards + kBrokerClients;  // hub, shards, clients
  record_broker_sap(reg, out);
  out.layer["broker.reports.received"] = received;
  out.layer["broker.reports.ingested"] = counter(reg, "broker.reports.ingested");
  out.layer["broker.reports.deduped"] = counter(reg, "broker.reports.deduped");
  out.layer["broker.reports.rejected"] = counter(reg, "broker.reports.rejected");
  out.layer["broker.pairs.compared"] = counter(reg, "broker.pairs.compared");
  out.layer["broker.takeovers"] = static_cast<double>(r.takeovers);
  out.layer["broker.ingest_ratio"] = ratio(counter(reg, "broker.reports.ingested"), received);
  out.layer["loadgen.tx_per_report"] =
      ratio(static_cast<double>(r.report_txs), static_cast<double>(r.reports_sent));

  if (probes) {
    obs::ScopedRegistry off(nullptr);
    Scope p(tr, "probes", "bench");
    // A report-sized box: the loadgen seals id + side + report + signature.
    probe_crypto(tr, cfg.rsa_bits, 16 + 1 + report_bytes + cfg.rsa_bits / 8, out);
    // Set-up generates the CA, broker, and one UE and one bTelco key per client.
    out.layer["crypto.keygen_s"] =
        (2.0 + 2.0 * kBrokerClients) * out.layer["crypto.keygen_ms"] / 1e3;
  }
  return out;
}

// --- fluid_population -------------------------------------------------------
// ScaleTrafficSim in Fluid mode: one bulk flow per UE (5 MB mean, arrivals
// over 10 s, shaper resampled every 30 s) with per-UE mobility. Open loop.

Outcome fluid_population(std::uint64_t seed, Tracer* tr, bool /*probes*/) {
  Outcome out;
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);

  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.n_ues = kFluidUes;
  cfg.seed = seed;
  cfg.mean_flow_mbytes = 5.0;
  cfg.start_window_s = kFluidWindowS;
  cfg.shaper_resample_s = 30.0;
  cfg.horizon_s = 3600.0;
  cfg.mobility_interval_s = kFluidMobilityS;
  cfg.fluid_threads = 1;

  std::optional<Scope> root(std::in_place, tr, "iteration", "bench");
  const auto t_setup = Clock::now();
  std::optional<scenario::ScaleTrafficSim> s;
  {
    Scope sp(tr, "setup", "traffic");
    s.emplace(cfg);
  }
  {
    Scope sp(tr, "start", "traffic");
    s->start();
  }
  out.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  // Arrivals, then steady state: two run_until slices in every iteration,
  // which must reproduce ScaleTrafficSim::run_to_completion's fingerprint.
  {
    Scope sp(tr, "run.arrival", "sim");
    s->simulator().run_until(TimePoint::zero() + Duration::seconds(kFluidWindowS));
  }
  {
    Scope sp(tr, "run.steady", "sim");
    s->simulator().run_until(TimePoint::zero() + Duration::seconds(cfg.horizon_s));
  }
  scenario::ScaleTrafficResult r;
  {
    Scope sp(tr, "collect", "traffic");
    r = s->collect();
  }
  out.run_s = seconds_since(t_run);
  root.reset();

  out.sim_s = r.sim_s;
  out.fingerprint = r.fingerprint();
  out.attempted = static_cast<std::uint64_t>(r.n_ues);
  out.ops = static_cast<std::uint64_t>(r.completed);
  out.failed = out.attempted - out.ops;
  out.p50_ms = r.completion_p50_s * 1e3;
  out.tail_ms = r.completion_p99_s * 1e3;
  out.tail_label = tail_label(99);
  out.samples = static_cast<std::size_t>(r.completed);
  out.goodput_mbps = r.flow_tput_mean_mbps;  // per flow: what one user sees
  if (r.completed != r.n_ues) {
    out.errors.push_back("fluid_population: completed " + std::to_string(r.completed) +
                         " of " + std::to_string(r.n_ues) + " flows");
  }
  // The program's own fluid.conservation invariant allows 16 bytes of
  // floating-point drift between the arena and the segment ledger.
  if (std::abs(r.delivered_bytes - r.segment_bytes - r.packet_ledger_bytes) > 16.0) {
    out.errors.push_back("fluid_population: delivered bytes differ from the segment ledger");
  }
  if (r.negative_residuals != 0) {
    out.errors.push_back("fluid_population: " + std::to_string(r.negative_residuals) +
                         " negative residuals");
  }
  out.aliases = {{"fct_p50_ms", "p50_ms"}, {"fct_p99_ms", "tail_ms"}};
  out.note = std::to_string(kFluidUes) + " UEs, " +
             std::to_string(static_cast<long long>(r.events)) + " events";

  out.layer["sim.events"] = static_cast<double>(r.events);
  out.layer["traffic.rate_events"] = static_cast<double>(r.rate_events);
  out.layer["traffic.events_per_flow"] = ratio(static_cast<double>(r.events), r.n_ues);
  out.layer["traffic.arena_mb"] = static_cast<double>(r.arena_bytes) / 1e6;
  if (tr) {
    out.layer["traffic.arrival_s"] = tr->total_s("run.arrival");
    out.layer["traffic.steady_s"] = tr->total_s("run.steady");
  }
  return out;
}

// --- drive_packet -----------------------------------------------------------
// One CellBricks UE on the highway/night route running an MPTCP iperf
// download over the packet path (as `cbsim drive --route highway --night`).
// Closed loop: one ack-paced transfer.

/// Sim milliseconds to deliver each successive `chunk` bytes of a transfer
/// that starts at `start_s`, from the per-bucket byte counts of `series`
/// (linear within a bucket).
Summary chunk_times_ms(const TimeSeries& series, double start_s, double chunk) {
  Summary out;
  const double width_ms = series.bucket_width().to_millis();
  double total = 0.0;
  double target = chunk;
  double last_ms = start_s * 1e3;
  for (std::size_t i = 0; i < series.buckets(); ++i) {
    const double b = series.bucket(i);
    while (b > 0.0 && total + b >= target) {
      const double at_ms = (static_cast<double>(i) + (target - total) / b) * width_ms;
      out.add(at_ms - last_ms);
      last_ms = at_ms;
      target += chunk;
    }
    total += b;
  }
  return out;
}

scenario::WorldConfig drive_config(std::uint64_t seed) {
  scenario::WorldConfig cfg;
  cfg.arch = scenario::Architecture::CellBricks;
  cfg.route = scenario::highway_night();
  cfg.seed = seed;
  cfg.n_towers = static_cast<int>(cfg.route.speed_mps * kDriveSimS /
                                  cfg.route.tower_spacing_m) + 3;
  return cfg;
}

Outcome drive_packet(std::uint64_t seed, Tracer* tr, bool probes) {
  Outcome out;
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  const scenario::WorldConfig cfg = drive_config(seed);
  const Duration run_time = Duration::seconds(kDriveSimS);

  std::optional<Scope> root(std::in_place, tr, "iteration", "bench");
  const auto t_setup = Clock::now();
  std::optional<scenario::World> world;
  std::optional<apps::IperfPushServer> server;
  {
    Scope s(tr, "setup", "scenario");
    world.emplace(cfg);
    server.emplace(world->server_transport(), 5001, world->simulator(), run_time);
  }
  {
    Scope s(tr, "start", "scenario");
    world->start();
  }
  out.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  std::optional<apps::IperfDownloadClient> client;
  {
    Scope s(tr, "run.warmup", "sim");
    world->simulator().run_for(Duration::seconds(kDriveWarmupS));
  }
  {
    Scope s(tr, "run.transfer", "sim");
    client.emplace(world->ue_transport(), net::EndPoint{world->server_addr(), 5001},
                   world->simulator(), Duration::millis(10));
    world->simulator().run_for(run_time + Duration::s(5));
  }
  out.run_s = seconds_since(t_run);
  root.reset();

  const Summary& attach = world->ue_agent()->attach_latencies();
  const std::uint64_t handovers = world->handovers();
  out.sim_s = world->simulator().now().to_seconds();
  out.goodput_mbps = client->mean_throughput_bps() / 1e6;
  out.attempted = static_cast<std::uint64_t>(counter(reg, "ue_agent.attach.attempts") +
                                             counter(reg, "ue_agent.reports.sent") +
                                             counter(reg, "btelco.reports.sent"));
  out.failed = static_cast<std::uint64_t>(counter(reg, "ue_agent.attach.failure") +
                                          counter(reg, "ue_agent.reports.abandoned") +
                                          counter(reg, "btelco.reports.abandoned"));
  out.ops = static_cast<std::uint64_t>(counter(reg, "tcp.segments.sent"));
  const Summary chunks = chunk_times_ms(client->series(), kDriveWarmupS, kDriveChunkBytes);
  if (chunks.count() > 10) {
    const double pct = std::floor(100.0 * static_cast<double>(chunks.count() - 10) /
                                  static_cast<double>(chunks.count()));
    out.p50_ms = chunks.p50();
    out.tail_ms = chunks.percentile(pct);
    out.tail_label = tail_label(pct);
  } else {
    out.errors.push_back("drive_packet: fewer than 11 chunks of 10 MB delivered");
  }
  out.samples = chunks.count();
  std::uint64_t h = kFnvOffset;
  const std::string snapshot = reg.to_json();
  fnv_mix(h, snapshot.data(), snapshot.size());
  fnv_mix(h, client->total_bytes());
  fnv_mix(h, world->simulator().events_executed());
  out.fingerprint = h;
  if (handovers == 0) out.errors.push_back("drive_packet: no handovers");
  if (client->total_bytes() == 0) out.errors.push_back("drive_packet: zero goodput");
  out.aliases = {{"chunk_p50_ms", "p50_ms"}, {"chunk_tail_ms", "tail_ms"}};
  out.note = std::to_string(handovers) + " handovers, " + std::to_string(attach.count()) +
             " attaches";

  const double segments = counter(reg, "tcp.segments.sent");
  out.layer["sim.events"] = static_cast<double>(world->simulator().events_executed());
  out.layer["net.nodes"] = static_cast<double>(world->network().nodes().size());
  out.layer["net.recompute_calls"] = counter(reg, "btelco.attaches");
  record_broker_sap(reg, out);
  out.layer["tcp.segments.sent"] = segments;
  out.layer["tcp.retransmits"] = counter(reg, "tcp.retransmits");
  out.layer["tcp.rto"] = counter(reg, "tcp.rto");
  out.layer["tcp.retx_ratio"] = ratio(counter(reg, "tcp.retransmits"), segments);
  out.layer["mptcp.subflows.opened"] = counter(reg, "mptcp.subflows.opened");
  out.layer["mptcp.subflows.switches"] = counter(reg, "mptcp.subflows.switches");
  out.layer["ran.measurement_ticks"] = counter(reg, "ran.measurement_ticks");
  out.layer["ran.cell_changes"] = counter(reg, "ran.cell_changes");
  out.layer["ue_agent.attach.attempts"] = counter(reg, "ue_agent.attach.attempts");
  out.layer["ue_agent.attach.retries"] = counter(reg, "ue_agent.attach.retries");
  out.layer["ue_agent.reattach_latency_ms.p50"] =
      hist_pct(reg, "ue_agent.reattach_latency_ms", 50);

  if (probes) {
    obs::ScopedRegistry off(nullptr);
    Scope p(tr, "probes", "bench");
    probe_crypto(tr, cfg.rsa_bits, 128, out);
    // Set-up generates the CA, broker, UE and one bTelco key per tower.
    out.layer["crypto.keygen_s"] = (3.0 + cfg.n_towers) * out.layer["crypto.keygen_ms"] / 1e3;
    // Route recomputation on a private world built from the same config.
    std::optional<scenario::World> copy;
    {
      Scope s(tr, "probe.net.copy_world", "bench");
      copy.emplace(cfg);
    }
    out.layer["net.recompute_ms"] =
        median_call_ms(tr, "probe.net.recompute_routes", "net", kProbeRouteCalls,
                       [&] { copy->network().recompute_routes(); });
    out.layer["est.net_run_s"] =
        out.layer["net.recompute_calls"] * out.layer["net.recompute_ms"] / 1e3;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"attach_storm", "broker_ingest",
                                                 "fluid_population", "drive_packet"};
  return names;
}

std::string workload_params(const std::string& name) {
  if (name == "attach_storm") {
    return "ues=" + std::to_string(kStormUes) + ",rsa_bits=" + std::to_string(kStormRsaBits);
  }
  if (name == "broker_ingest") {
    return "shards=" + std::to_string(kBrokerShards) +
           ",clients=" + std::to_string(kBrokerClients) + ",load_s=" + fmt(kBrokerLoadS, 1) +
           ",drain_s=" + fmt(kBrokerDrainS, 1);
  }
  if (name == "fluid_population") {
    return "ues=" + std::to_string(kFluidUes) + ",mobility_s=" + fmt(kFluidMobilityS, 1);
  }
  if (name == "drive_packet") return "route=highway_night,sim_s=" + fmt(kDriveSimS, 1);
  return "";
}

Outcome run_workload(const std::string& name, std::uint64_t seed, Tracer* tracer,
                     bool probes) {
  if (name == "attach_storm") return attach_storm(seed, tracer, probes);
  if (name == "broker_ingest") return broker_ingest(seed, tracer, probes);
  if (name == "fluid_population") return fluid_population(seed, tracer, probes);
  if (name == "drive_packet") return drive_packet(seed, tracer, probes);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
