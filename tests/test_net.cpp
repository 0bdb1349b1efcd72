// Unit tests for the simulated network layer: links (delay/rate/loss/queue),
// node forwarding, routing (incl. lazy rebuilds after topology changes),
// proxy anchors, and dynamic re-addressing.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace cb::net {
namespace {

Packet make_udp(EndPoint src, EndPoint dst, std::size_t payload_size) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = Proto::Udp;
  p.payload.assign(payload_size, 0xAB);
  return p;
}

struct TwoNodes {
  sim::Simulator sim;
  Network network{sim};
  Node* a = network.add_node("a");
  Node* b = network.add_node("b");
};

TEST(Address, Formatting) {
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1).to_string(), "10.0.0.1");
  EXPECT_EQ((EndPoint{Ipv4Addr(1, 2, 3, 4), 80}).to_string(), "1.2.3.4:80");
  EXPECT_FALSE(Ipv4Addr().valid());
  EXPECT_TRUE(Ipv4Addr(10, 0, 0, 1).valid());
}

TEST(Network, AddressAllocatorIsUnique) {
  sim::Simulator sim;
  Network net(sim);
  const Ipv4Addr x = net.alloc_address(10);
  const Ipv4Addr y = net.alloc_address(10);
  const Ipv4Addr z = net.alloc_address(20);
  EXPECT_NE(x, y);
  EXPECT_NE(x, z);
  EXPECT_EQ(x.value() >> 24, 10u);
  EXPECT_EQ(z.value() >> 24, 20u);
}

TEST(Link, DeliversWithPropagationDelay) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  t.network.connect(t.a, t.b, LinkParams{.delay = Duration::ms(10)});

  TimePoint arrival;
  t.b->bind_udp(5000, [&](const Packet&) { arrival = t.sim.now(); });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 100));
  t.sim.run();
  EXPECT_EQ(arrival.nanos(), Duration::ms(10).nanos());
}

TEST(Link, SerializationDelayDependsOnRate) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  // 1 Mb/s: a 1000+40 byte packet takes 8.32 ms to serialize.
  t.network.connect(t.a, t.b, LinkParams{.rate_bps = 1e6, .delay = Duration::zero()});

  TimePoint arrival;
  t.b->bind_udp(5000, [&](const Packet&) { arrival = t.sim.now(); });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 1000));
  t.sim.run();
  EXPECT_NEAR(arrival.to_seconds(), 1040.0 * 8.0 / 1e6, 1e-9);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  t.network.connect(t.a, t.b, LinkParams{.rate_bps = 1e6});

  std::vector<double> arrivals;
  t.b->bind_udp(5000, [&](const Packet&) { arrivals.push_back(t.sim.now().to_seconds()); });
  for (int i = 0; i < 3; ++i) {
    t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 960));
  }
  t.sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const double unit = 1000.0 * 8.0 / 1e6;  // 8 ms per 1000-wire-byte packet
  EXPECT_NEAR(arrivals[0], unit, 1e-9);
  EXPECT_NEAR(arrivals[1], 2 * unit, 1e-9);
  EXPECT_NEAR(arrivals[2], 3 * unit, 1e-9);
}

TEST(Link, QueueOverflowDrops) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  LinkParams params{.rate_bps = 1e6};
  params.queue_bytes = 3000;
  Link* link = t.network.connect(t.a, t.b, params);

  int received = 0;
  t.b->bind_udp(5000, [&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 960));
  }
  t.sim.run();
  EXPECT_LT(received, 10);
  EXPECT_GT(link->drops(), 0u);
}

TEST(Link, RandomLossDropsRoughlyAtRate) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  LinkParams params;
  params.loss = 0.3;
  t.network.connect(t.a, t.b, params);

  int received = 0;
  t.b->bind_udp(5000, [&](const Packet&) { ++received; });
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 10));
  }
  t.sim.run();
  EXPECT_NEAR(static_cast<double>(received) / total, 0.7, 0.05);
}

TEST(Link, DownLinkDropsEverything) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  Link* link = t.network.connect(t.a, t.b, LinkParams{});

  int received = 0;
  t.b->bind_udp(5000, [&](const Packet&) { ++received; });
  link->set_up(false);
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 10));
  t.sim.run();
  EXPECT_EQ(received, 0);

  link->set_up(true);
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 10));
  t.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Routing, MultiHopForwarding) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* r1 = net.add_node("r1");
  Node* r2 = net.add_node("r2");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.register_address(Ipv4Addr(10, 0, 0, 2), b);
  net.connect(a, r1, LinkParams{.delay = Duration::ms(1)});
  net.connect(r1, r2, LinkParams{.delay = Duration::ms(1)});
  net.connect(r2, b, LinkParams{.delay = Duration::ms(1)});

  TimePoint arrival;
  int count = 0;
  b->bind_udp(80, [&](const Packet&) {
    arrival = sim.now();
    ++count;
  });
  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 50));
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(arrival.nanos(), Duration::ms(3).nanos());
  EXPECT_EQ(r1->forwarded(), 1u);
  EXPECT_EQ(r2->forwarded(), 1u);
}

TEST(Routing, ShortestDelayPathWins) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* fast = net.add_node("fast");
  Node* slow = net.add_node("slow");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.register_address(Ipv4Addr(10, 0, 0, 2), b);
  net.connect(a, fast, LinkParams{.delay = Duration::ms(1)});
  net.connect(fast, b, LinkParams{.delay = Duration::ms(1)});
  net.connect(a, slow, LinkParams{.delay = Duration::ms(50)});
  net.connect(slow, b, LinkParams{.delay = Duration::ms(50)});

  int count = 0;
  b->bind_udp(80, [&](const Packet&) { ++count; });
  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 50));
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(fast->forwarded(), 1u);
  EXPECT_EQ(slow->forwarded(), 0u);
}

TEST(Routing, ReaddressingMovesDelivery) {
  // A UE-style node loses one address and gains another anchored elsewhere.
  sim::Simulator sim;
  Network net(sim);
  Node* server = net.add_node("server");
  Node* gw1 = net.add_node("gw1");
  Node* gw2 = net.add_node("gw2");
  Node* ue = net.add_node("ue");
  net.register_address(Ipv4Addr(1, 1, 1, 1), server);
  net.connect(server, gw1, LinkParams{.delay = Duration::ms(5)});
  net.connect(server, gw2, LinkParams{.delay = Duration::ms(5)});
  Link* radio1 = net.connect(gw1, ue, LinkParams{.delay = Duration::ms(2)});
  Link* radio2 = net.connect(gw2, ue, LinkParams{.delay = Duration::ms(2)});
  radio2->set_up(false);

  const Ipv4Addr ip1(10, 1, 0, 1);
  net.register_address(ip1, ue);

  int received = 0;
  ue->bind_udp(9000, [&](const Packet&) { ++received; });
  server->send(make_udp({Ipv4Addr(1, 1, 1, 1), 1}, {ip1, 9000}, 10));
  sim.run();
  EXPECT_EQ(received, 1);

  // Detach from gw1, attach to gw2 with a new address.
  radio1->set_up(false);
  radio2->set_up(true);
  net.unregister_address(ip1);
  const Ipv4Addr ip2(10, 2, 0, 1);
  net.register_address(ip2, ue);

  server->send(make_udp({Ipv4Addr(1, 1, 1, 1), 1}, {ip2, 9000}, 10));
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_FALSE(ue->has_address(ip1));
}

TEST(Node, ProxyAddressInterceptsPackets) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  // 99.0.0.1 is anchored at b but NOT local there.
  t.network.register_address(Ipv4Addr(99, 0, 0, 1), t.b, /*proxy_only=*/true);
  t.network.connect(t.a, t.b, LinkParams{});

  int proxied = 0;
  t.b->add_proxy_address(Ipv4Addr(99, 0, 0, 1), [&](Packet&&) { ++proxied; });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(99, 0, 0, 1), 80}, 10));
  t.sim.run();
  EXPECT_EQ(proxied, 1);
}

TEST(Node, ForwardHookCanConsume) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* mid = net.add_node("mid");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.register_address(Ipv4Addr(10, 0, 0, 2), b);
  net.connect(a, mid, LinkParams{});
  net.connect(mid, b, LinkParams{});

  int hook_count = 0, received = 0;
  mid->set_forward_hook([&](Packet&) {
    ++hook_count;
    return true;  // swallow everything
  });
  b->bind_udp(80, [&](const Packet&) { ++received; });
  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 10));
  sim.run();
  EXPECT_EQ(hook_count, 1);
  EXPECT_EQ(received, 0);
}

TEST(Node, TtlPreventsRoutingLoops) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* b = net.add_node("b");
  Link* ab = net.connect(a, b, LinkParams{});
  // Deliberately broken routing: no node owns 77.0.0.1, and each node's
  // default route points back across the link.
  a->set_default_route(ab);
  b->set_default_route(ab);

  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(77, 0, 0, 1), 80}, 10));
  sim.run();  // must terminate
  EXPECT_GT(a->dropped_no_route() + b->dropped_no_route(), 0u);
  EXPECT_GT(a->forwarded() + b->forwarded(), 2u);
}

// Routes follow topology changes on the next forward, with no rebuild call.

/// a-fast-b (1+1 ms) and a-slow-b (50+50 ms); 10.0.0.2 lives at b.
struct Diamond {
  sim::Simulator sim;
  Network net{sim};
  Node* a = net.add_node("a");
  Node* fast = net.add_node("fast");
  Node* slow = net.add_node("slow");
  Node* b = net.add_node("b");
  Link* a_fast = net.connect(a, fast, LinkParams{.delay = Duration::ms(1)});
  Link* fast_b = net.connect(fast, b, LinkParams{.delay = Duration::ms(1)});
  Link* a_slow = net.connect(a, slow, LinkParams{.delay = Duration::ms(50)});
  Link* slow_b = net.connect(slow, b, LinkParams{.delay = Duration::ms(50)});
  int received = 0;

  Diamond() {
    net.register_address(Ipv4Addr(10, 0, 0, 1), a);
    net.register_address(Ipv4Addr(10, 0, 0, 2), b);
    b->bind_udp(80, [this](const Packet&) { ++received; });
  }
  void ping() {
    a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 50));
    sim.run();
  }
};

TEST(Routing, AddressRegisteredAfterBuildIsReachable) {
  Diamond d;
  d.ping();  // builds a's and fast's tables
  const Ipv4Addr late(10, 0, 0, 3);
  d.net.register_address(late, d.b);
  d.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {late, 80}, 50));
  d.sim.run();
  EXPECT_EQ(d.received, 2);
  EXPECT_EQ(d.fast->forwarded(), 2u);
}

TEST(Routing, LinkDownReroutesAndUpRestores) {
  Diamond d;
  d.ping();
  EXPECT_EQ(d.fast->forwarded(), 1u);

  d.fast_b->set_up(false);
  d.ping();
  EXPECT_EQ(d.received, 2);
  EXPECT_EQ(d.slow->forwarded(), 1u);
  EXPECT_EQ(d.a->dropped_no_route(), 0u);

  d.fast_b->set_up(true);
  d.ping();
  EXPECT_EQ(d.received, 3);
  EXPECT_EQ(d.fast->forwarded(), 2u);
  EXPECT_EQ(d.slow->forwarded(), 1u);
}

TEST(Routing, DelayChangeMovesRoute) {
  Diamond d;
  d.ping();
  EXPECT_EQ(d.fast->forwarded(), 1u);

  // A rate change cannot move a route; a delay change can.
  d.a_fast->set_params(d.a, LinkParams{.rate_bps = 1e9, .delay = Duration::ms(1)});
  d.ping();
  EXPECT_EQ(d.fast->forwarded(), 2u);
  d.a_fast->set_params(d.a, LinkParams{.delay = Duration::ms(200)});
  d.ping();
  EXPECT_EQ(d.received, 3);
  EXPECT_EQ(d.slow->forwarded(), 1u);
}

TEST(Routing, ReleasedAddressIsDroppedAtSender) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  const Ipv4Addr released(10, 0, 0, 2);
  t.network.register_address(released, t.b);
  Link* link = t.network.connect(t.a, t.b, LinkParams{});
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {released, 5000}, 10));
  t.sim.run();
  const std::uint64_t bytes_before = link->counters(t.a).sent_bytes;
  ASSERT_GT(bytes_before, 0u);

  t.network.unregister_address(released);
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {released, 5000}, 10));
  t.sim.run();
  EXPECT_EQ(t.a->dropped_no_route(), 1u);
  EXPECT_EQ(link->counters(t.a).sent_bytes, bytes_before);
  EXPECT_EQ(t.b->forwarded() + t.b->dropped_no_route(), 0u);
}

TEST(Routing, AddressChurnNeverRebuildsTables) {
  // A gateway anchoring a fresh subscriber address per attach: a -> r -> b.
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* r = net.add_node("r");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.connect(a, r, LinkParams{});
  net.connect(r, b, LinkParams{});
  int proxied = 0;
  for (int i = 0; i < 1000; ++i) {
    const Ipv4Addr ip = net.alloc_address(30);
    net.register_address(ip, b, /*proxy_only=*/true);
    b->add_proxy_address(ip, [&](Packet&&) { ++proxied; });
    a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {ip, 80}, 10));
    sim.run();
  }
  EXPECT_EQ(proxied, 1000);
  EXPECT_LE(net.route_rebuilds(), 2u);  // at most once each for a and r
}

TEST(Node, UdpPortBindingRules) {
  sim::Simulator sim;
  Network net(sim);
  Node* n = net.add_node("n");
  n->bind_udp(80, [](const Packet&) {});
  EXPECT_THROW(n->bind_udp(80, [](const Packet&) {}), std::logic_error);
  n->unbind_udp(80);
  n->bind_udp(80, [](const Packet&) {});

  const std::uint16_t e1 = n->alloc_port();
  const std::uint16_t e2 = n->alloc_port();
  EXPECT_NE(e1, e2);
  EXPECT_GE(e1, 49152);
}

}  // namespace
}  // namespace cb::net
