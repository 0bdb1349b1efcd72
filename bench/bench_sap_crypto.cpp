// SAP crypto microbenchmarks (google-benchmark) — backs the §6.1 claim that
// "our changes to Magma such as adding brokerd and crypto operations
// introduce negligible performance overhead (~2 ms)": measures the real CPU
// cost of every cryptographic operation on the SAP and billing paths.
#include <benchmark/benchmark.h>

#include "cellbricks/billing.hpp"
#include "cellbricks/sap.hpp"
#include "crypto/box.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

using namespace cb;
using namespace cb::crypto;
using namespace cb::cellbricks;

namespace {

// Shared fixtures (keygen once; 1024-bit keys, the deployment-realistic
// size; tests use 512 for speed).
struct Fixture {
  Rng rng{7};
  CertificateAuthority ca{"root", rng, 1024};
  RsaKeyPair broker_keys{RsaKeyPair::generate(rng, 1024)};
  Certificate broker_cert{ca.issue("broker", broker_keys.public_key(), TimePoint::zero(),
                                   TimePoint::zero() + Duration::s(1e9))};
  RsaKeyPair telco_keys{RsaKeyPair::generate(rng, 1024)};
  Certificate telco_cert{ca.issue("telco", telco_keys.public_key(), TimePoint::zero(),
                                  TimePoint::zero() + Duration::s(1e9))};
  RsaKeyPair ue_keys{RsaKeyPair::generate(rng, 1024)};

  SapUe ue{"alice", "broker", RsaKeyPair(ue_keys), broker_keys.public_key()};
  SapTelco telco{"telco", RsaKeyPair(telco_keys), telco_cert, ca.public_key()};
  SapBroker broker{"broker", RsaKeyPair(broker_keys), broker_cert, ca.public_key()};

  Fixture() { broker.add_subscriber("alice", ue_keys.public_key()); }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Sha256_1KiB(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.random_bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_HmacSha256_1KiB(benchmark::State& state) {
  Rng rng(2);
  const Bytes key = rng.random_bytes(32);
  const Bytes data = rng.random_bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HmacSha256_1KiB);

void BM_ChaCha20_16KiB(benchmark::State& state) {
  Rng rng(3);
  const Bytes key = rng.random_bytes(32);
  const Bytes nonce = rng.random_bytes(12);
  const Bytes data = rng.random_bytes(16384);
  for (auto _ : state) benchmark::DoNotOptimize(chacha20_xor(key, nonce, 1, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16384);
}
BENCHMARK(BM_ChaCha20_16KiB);

void BM_RsaSign1024(benchmark::State& state) {
  Fixture& f = fixture();
  const Bytes msg = to_bytes("attach request payload");
  for (auto _ : state) benchmark::DoNotOptimize(f.ue_keys.sign(msg));
}
BENCHMARK(BM_RsaSign1024);

void BM_RsaVerify1024(benchmark::State& state) {
  Fixture& f = fixture();
  const Bytes msg = to_bytes("attach request payload");
  const Bytes sig = f.ue_keys.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ue_keys.public_key().verify(msg, sig));
  }
}
BENCHMARK(BM_RsaVerify1024);

// One modular exponentiation with a full-width exponent at 256-, 512- and
// 1024-bit odd moduli: the CRT halves of 512- and 1024-bit RSA keys and the
// 1024-bit public modulus. Times the Montgomery kernels alone.
void BM_MontgomeryPow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(10 + bits);
  const Montgomery mont(BigNum::random_odd(rng, bits));
  const BigNum base = BigNum::random_below(rng, mont.modulus());
  const BigNum exponent = BigNum::random_odd(rng, bits);
  for (auto _ : state) benchmark::DoNotOptimize(mont.pow(base, exponent));
}
BENCHMARK(BM_MontgomeryPow)->Arg(256)->Arg(512)->Arg(1024);

void BM_SealedBox_256B(benchmark::State& state) {
  Fixture& f = fixture();
  Rng rng(4);
  const Bytes msg = rng.random_bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seal(f.broker_keys.public_key(), msg, rng));
  }
}
BENCHMARK(BM_SealedBox_256B);

void BM_SapUeMakeAuthReq(benchmark::State& state) {
  Fixture& f = fixture();
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(f.ue.make_auth_req("telco", rng));
}
BENCHMARK(BM_SapUeMakeAuthReq);

void BM_SapTelcoAugment(benchmark::State& state) {
  Fixture& f = fixture();
  Rng rng(6);
  const Bytes req_u = f.ue.make_auth_req("telco", rng);
  for (auto _ : state) benchmark::DoNotOptimize(f.telco.make_auth_req_t(req_u, QosCap{}));
}
BENCHMARK(BM_SapTelcoAugment);

void BM_SapBrokerProcess(benchmark::State& state) {
  Fixture& f = fixture();
  Rng rng(8);
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh nonce each iteration (the replay cache would reject reuse).
    const Bytes req_u = f.ue.make_auth_req("telco", rng);
    const Bytes req_t = f.telco.make_auth_req_t(req_u, QosCap{});
    state.ResumeTiming();
    auto d = f.broker.process_auth_req(req_t, TimePoint::zero(), rng, QosInfo{}, nullptr);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SapBrokerProcess);

void BM_TrafficReportSignSeal(benchmark::State& state) {
  Fixture& f = fixture();
  Rng rng(9);
  TrafficReport r;
  r.session_id = 1;
  r.dl_bytes = 1 << 20;
  const Bytes bytes = r.serialize();
  for (auto _ : state) {
    ByteWriter w;
    w.bytes(bytes);
    w.bytes(f.ue.sign(bytes));
    benchmark::DoNotOptimize(seal(f.broker_keys.public_key(), w.data(), rng));
  }
}
BENCHMARK(BM_TrafficReportSignSeal);

}  // namespace

BENCHMARK_MAIN();
