// Allocation budget of the packet byte path.
//
// This binary replaces the global operator new/delete with counting
// versions, runs steady-state bulk transfers over a rate-limited link and
// bounds the heap allocations per TCP segment sent. The byte path itself
// (send queues, segment build, receive, MPTCP record framing) allocates
// nothing per segment, and a link direction allocates only when its ring
// grows; what remains is the segment's own wire buffer, its shared packet
// handle, the DATA_ACK datagram per MPTCP record, and loss-recovery
// bookkeeping (out-of-order copies, SACK lists, SACK scoreboard nodes).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "transport/mptcp.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cb::transport {
namespace {

using net::Ipv4Addr;
using net::LinkParams;

// Allocations per TCP segment sent over the 4 s after a 2 s warm-up.
struct Budget {
  double allocations_per_segment = 0;
  std::uint64_t segments = 0;
};

// Two hosts behind a router; the access hop is the 20 Mb/s bottleneck, so
// the transfer runs into drop-tail loss and SACK recovery, as a radio
// bearer does.
struct BulkWorld {
  BulkWorld() : sim(7), net(sim) {
    a = net.add_node("a");
    r = net.add_node("r");
    b = net.add_node("b");
    net.register_address(a_addr, a);
    net.register_address(b_addr, b);
    net.connect(a, r, LinkParams{.rate_bps = 1e9, .delay = Duration::ms(15)});
    net.connect(r, b,
                LinkParams{.rate_bps = 20e6, .delay = Duration::ms(5), .queue_bytes = 64 * 1024});
  }

  Budget measure(const std::function<std::uint64_t()>& segments_sent) {
    sim.run_for(Duration::s(2));
    const std::uint64_t allocs0 = g_allocations;
    const std::uint64_t segs0 = segments_sent();
    sim.run_for(Duration::s(4));
    Budget out;
    out.segments = segments_sent() - segs0;
    out.allocations_per_segment =
        static_cast<double>(g_allocations - allocs0) / static_cast<double>(out.segments);
    return out;
  }

  const Ipv4Addr a_addr{Ipv4Addr(10, 0, 0, 1)};
  const Ipv4Addr b_addr{Ipv4Addr(10, 0, 0, 2)};
  sim::Simulator sim;
  net::Network net;
  net::Node* a;
  net::Node* r;
  net::Node* b;
};

std::uint64_t count(const obs::Registry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c ? c->value() : 0;
}

std::uint64_t sent(const obs::Registry& reg) { return count(reg, "tcp.segments.sent"); }

// Keep `socket`'s send buffer full from one reusable application buffer.
template <typename Socket>
void pump_forever(Socket& socket) {
  static const Bytes chunk(64 * 1024, 0xA5);
  while (socket.send(chunk) > 0) {
  }
}

TEST(TransportAlloc, TcpBulkSteadyState) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  BulkWorld w;
  TcpStack stack_a(*w.a), stack_b(*w.b);
  std::uint64_t received = 0;
  std::shared_ptr<TcpSocket> server;
  stack_b.listen(80, [&](std::shared_ptr<TcpSocket> s) {
    server = std::move(s);
    server->on_data = [&](BytesView d) { received += d.size(); };
  });
  auto client = stack_a.connect({w.b_addr, 80});
  client->on_connected = [&] { pump_forever(*client); };
  client->on_send_space = [&] { pump_forever(*client); };

  const Budget budget = w.measure([&] { return sent(reg); });
  std::printf("tcp bulk: %llu segments, %.2f allocations per segment\n",
              static_cast<unsigned long long>(budget.segments), budget.allocations_per_segment);
  ASSERT_GT(budget.segments, 5000u);
  EXPECT_GT(count(reg, "tcp.retransmits"), 0u);  // loss recovery is in the window
  EXPECT_GT(received, 5'000'000u);
  EXPECT_LE(budget.allocations_per_segment, 2.8);
  client->on_connected = nullptr;
  client->on_send_space = nullptr;
}

TEST(TransportAlloc, MptcpBulkSteadyState) {
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  BulkWorld w;
  TcpStack tcp_a(*w.a), tcp_b(*w.b);
  MptcpStack mptcp_a(*w.a, tcp_a), mptcp_b(*w.b, tcp_b);
  std::uint64_t received = 0;
  std::shared_ptr<MptcpSocket> server;
  mptcp_b.listen(80, [&](std::shared_ptr<MptcpSocket> s) {
    server = std::move(s);
    server->on_data = [&](BytesView d) { received += d.size(); };
  });
  auto client = mptcp_a.connect({w.b_addr, 80});
  client->on_connected = [&] { pump_forever(*client); };
  client->on_send_space = [&] { pump_forever(*client); };

  const Budget budget = w.measure([&] { return sent(reg); });
  std::printf("mptcp bulk: %llu segments, %.2f allocations per segment\n",
              static_cast<unsigned long long>(budget.segments), budget.allocations_per_segment);
  ASSERT_GT(budget.segments, 5000u);
  EXPECT_GT(count(reg, "tcp.retransmits"), 0u);
  EXPECT_GT(received, 5'000'000u);
  EXPECT_LE(budget.allocations_per_segment, 3.7);
  client->on_connected = nullptr;
  client->on_send_space = nullptr;
}

}  // namespace
}  // namespace cb::transport
