// Transport-layer unit tests below the socket level: ByteQueue, segment
// wire format (including SACK blocks), malformed-input robustness, and
// configuration knobs.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/service_queue.hpp"
#include "transport/byte_queue.hpp"
#include "transport/tcp.hpp"

namespace cb::transport {
namespace {

// --- ByteQueue -------------------------------------------------------------

Bytes peek(const ByteQueue& q, std::size_t offset, std::size_t len) {
  Bytes out(len);
  out.resize(q.copy_out(offset, len, out.data()));
  return out;
}

TEST(ByteQueue, AppendPeekPop) {
  ByteQueue q;
  EXPECT_TRUE(q.empty());
  q.append(to_bytes("hello "));
  q.append(to_bytes("world"));
  EXPECT_EQ(q.size(), 11u);
  EXPECT_EQ(peek(q, 0, 5), to_bytes("hello"));
  EXPECT_EQ(peek(q, 6, 5), to_bytes("world"));
  q.pop(6);
  EXPECT_EQ(peek(q, 0, 5), to_bytes("world"));
  q.pop(100);  // clamped
  EXPECT_TRUE(q.empty());
}

TEST(ByteQueue, PeekBeyondEndClamps) {
  ByteQueue q;
  q.append(to_bytes("abc"));
  EXPECT_EQ(peek(q, 1, 100), to_bytes("bc"));
  EXPECT_TRUE(peek(q, 3, 10).empty());
  EXPECT_TRUE(peek(q, 99, 1).empty());
}

TEST(ByteQueue, LargeChurn) {
  ByteQueue q;
  Rng rng(4);
  std::uint64_t pushed = 0, popped = 0;
  for (int i = 0; i < 500; ++i) {
    const Bytes chunk = rng.random_bytes(1 + rng.next_below(4000));
    q.append(chunk);
    pushed += chunk.size();
    const std::size_t take = rng.next_below(q.size() + 1);
    q.pop(take);
    popped += take;
    EXPECT_EQ(q.size(), pushed - popped);
  }
}

// --- Segment wire format ------------------------------------------------------

TEST(TcpWire, SackBlocksRoundTrip) {
  TcpHeader h;
  h.seq = 1000;
  h.ack = 2000;
  h.ack_flag = true;
  h.window = 65535;
  h.sack = {{3000, 4400}, {5800, 7200}, {9000, 9001}};
  const Bytes wire = serialize_segment(h, to_bytes("payload"));

  TcpHeader out;
  BytesView payload;
  ASSERT_TRUE(parse_segment(wire, out, payload));
  ASSERT_EQ(out.sack.size(), 3u);
  EXPECT_EQ(out.sack[0], (SackBlock{3000, 4400}));
  EXPECT_EQ(out.sack[2], (SackBlock{9000, 9001}));
  EXPECT_EQ(Bytes(payload.begin(), payload.end()), to_bytes("payload"));
}

TEST(TcpWire, EmptySackAndPayload) {
  TcpHeader h;
  h.seq = 7;
  const Bytes wire = serialize_segment(h, {});
  TcpHeader out;
  BytesView payload;
  ASSERT_TRUE(parse_segment(wire, out, payload));
  EXPECT_TRUE(out.sack.empty());
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(out.seq, 7u);
}

class TcpWireTruncation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpWireTruncation, TruncatedHeadersRejected) {
  TcpHeader h;
  h.sack = {{1, 2}, {3, 4}};
  const Bytes wire = serialize_segment(h, to_bytes("xy"));
  const std::size_t keep = GetParam();
  if (keep >= wire.size()) GTEST_SKIP();
  TcpHeader out;
  BytesView payload;
  // Either cleanly rejected or parsed as a shorter-but-valid frame; it must
  // never crash or throw.
  (void)parse_segment(BytesView(wire.data(), keep), out, payload);
}

INSTANTIATE_TEST_SUITE_P(Cuts, TcpWireTruncation,
                         ::testing::Values(0, 1, 5, 13, 14, 15, 16, 22, 30));

TEST(TcpWire, RandomBytesNeverCrashParser) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Bytes junk = rng.random_bytes(rng.next_below(80));
    TcpHeader h;
    BytesView payload;
    (void)parse_segment(junk, h, payload);
  }
}

TEST(TcpWire, MoreThanThreeSackBlocksRoundTrip) {
  // Senders emit at most three blocks, but the count is a full byte on the
  // wire and a corrupted segment can announce up to 255: every block that
  // fits must parse, and the payload is a view into the wire bytes.
  for (const std::size_t n : {4u, 7u, 255u}) {
    TcpHeader h;
    h.seq = 42;
    for (std::size_t i = 0; i < n; ++i) {
      h.sack.push_back({static_cast<std::uint32_t>(i * 1000),
                        static_cast<std::uint32_t>(i * 1000 + 1 + i)});
    }
    const Bytes wire = serialize_segment(h, to_bytes("tail"));
    ASSERT_EQ(wire.size(), kTcpHeaderBytes + 8 * n + 4);

    TcpHeader out;
    BytesView payload;
    ASSERT_TRUE(parse_segment(wire, out, payload)) << n << " blocks";
    ASSERT_EQ(out.sack.size(), n);
    EXPECT_TRUE(std::equal(out.sack.begin(), out.sack.end(), h.sack.begin()));
    EXPECT_EQ(out.seq, 42u);
    EXPECT_EQ(payload.data(), wire.data() + kTcpHeaderBytes + 8 * n);
    EXPECT_EQ(Bytes(payload.begin(), payload.end()), to_bytes("tail"));
  }
}

TEST(TcpWire, ParseIsBoundsCheckedWithoutThrowing) {
  // A cut anywhere inside the header (fixed part or SACK blocks) is a clean
  // rejection, never an exception; a cut after it is a shorter payload.
  TcpHeader h;
  h.sack = {{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}};
  const Bytes wire = serialize_segment(h, to_bytes("xyz"));
  const std::size_t header = kTcpHeaderBytes + 8 * h.sack.size();
  for (std::size_t keep = 0; keep <= wire.size(); ++keep) {
    TcpHeader out;
    BytesView payload;
    bool ok = false;
    EXPECT_NO_THROW(ok = parse_segment(BytesView(wire.data(), keep), out, payload));
    EXPECT_EQ(ok, keep >= header) << "keep " << keep;
    if (ok) {
      EXPECT_EQ(payload.size(), keep - header);
    }
  }

  // A count byte claiming more blocks than the bytes behind it.
  Bytes lying = serialize_segment(TcpHeader{}, to_bytes("0123456789abcdef"));
  lying[14] = 3;  // needs 24 bytes of blocks, only 16 follow
  TcpHeader out;
  BytesView payload;
  EXPECT_FALSE(parse_segment(lying, out, payload));
  lying[14] = 2;  // exactly fits: the payload is consumed as blocks
  ASSERT_TRUE(parse_segment(lying, out, payload));
  EXPECT_EQ(out.sack.size(), 2u);
  EXPECT_TRUE(payload.empty());
}

// --- Config knobs ---------------------------------------------------------------

struct MssWorld {
  explicit MssWorld(std::size_t mss) : sim(1), net(sim) {
    TcpConfig cfg;
    cfg.mss = mss;
    a = net.add_node("a");
    b = net.add_node("b");
    net.register_address(net::Ipv4Addr(10, 0, 0, 1), a);
    net.register_address(net::Ipv4Addr(10, 0, 0, 2), b);
    net.connect(a, b, net::LinkParams{.rate_bps = 10e6, .delay = Duration::ms(5)});
    stack_a = std::make_unique<TcpStack>(*a, cfg);
    stack_b = std::make_unique<TcpStack>(*b, cfg);
  }
  sim::Simulator sim;
  net::Network net;
  net::Node *a, *b;
  std::unique_ptr<TcpStack> stack_a, stack_b;
};

class TcpMssSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpMssSweep, TransfersWithAnyMss) {
  MssWorld w(GetParam());
  Bytes received;
  std::shared_ptr<TcpSocket> srv;
  w.stack_b->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    srv = std::move(s);
    srv->on_data = [&](BytesView d) { received.insert(received.end(), d.begin(), d.end()); };
  });
  auto c = w.stack_a->connect({net::Ipv4Addr(10, 0, 0, 2), 80});
  Bytes payload(50'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::size_t sent = 0;
  auto pump = [&] {
    while (sent < payload.size()) {
      const std::size_t n =
          c->send(BytesView(payload.data() + sent, payload.size() - sent));
      if (n == 0) return;
      sent += n;
    }
  };
  c->on_connected = pump;
  c->on_send_space = pump;
  w.sim.run_for(Duration::s(20));
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(MssValues, TcpMssSweep, ::testing::Values(128, 536, 1400, 9000));

// --- ServiceQueue ----------------------------------------------------------------

TEST(ServiceQueue, SerializesWork) {
  sim::Simulator sim;
  sim::ServiceQueue q(sim);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    q.submit(Duration::ms(10), [&] { done_at.push_back(sim.now().to_seconds()); });
  }
  sim.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_NEAR(done_at[0], 0.010, 1e-9);
  EXPECT_NEAR(done_at[1], 0.020, 1e-9);  // queued behind the first
  EXPECT_NEAR(done_at[2], 0.030, 1e-9);
  EXPECT_EQ(q.busy_time().to_millis(), 30.0);
  EXPECT_EQ(q.jobs(), 3u);
}

TEST(ServiceQueue, IdleGapsDoNotAccumulate) {
  sim::Simulator sim;
  sim::ServiceQueue q(sim);
  double second_done = 0;
  q.submit(Duration::ms(5), [] {});
  sim.run_for(Duration::s(1));  // long idle gap
  q.submit(Duration::ms(5), [&] { second_done = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(second_done, 1.005, 1e-9);  // served immediately after the gap
  EXPECT_EQ(q.busy_time().to_millis(), 10.0);
}

TEST(ServiceQueue, BacklogReflectsQueueing) {
  sim::Simulator sim;
  sim::ServiceQueue q(sim);
  EXPECT_EQ(q.backlog().nanos(), 0);
  q.submit(Duration::ms(50), [] {});
  q.submit(Duration::ms(50), [] {});
  EXPECT_EQ(q.backlog().to_millis(), 100.0);
}

}  // namespace
}  // namespace cb::transport
