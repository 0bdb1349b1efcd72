// Differential property test for the routing oracle: Network's lazily
// rebuilt owner-node next-hop tables must pick exactly the first hop that a
// per-address all-pairs rebuild (the oracle's earlier design, kept below as
// the reference) picks, across random topologies — some disconnected — under
// link flaps, delay changes, new links, and address register/release churn.
//
// CB_TEST_SEED=<n> replays from seed n (see test_seed.hpp).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_seed.hpp"

namespace cb::net {
namespace {

using HostRoutes = std::unordered_map<Ipv4Addr, Link*>;

/// Reference: Dijkstra from every node over up links (weight = delay + 1e-9),
/// then one host route per registered address whose owner is another,
/// reachable node.
std::vector<HostRoutes> reference_routes(const Network& net,
                                         const std::map<Ipv4Addr, Node*>& owners) {
  const auto& nodes = net.nodes();
  std::unordered_map<const Node*, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i].get()] = i;

  const std::size_t n = nodes.size();
  std::vector<HostRoutes> routes(n);
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<Link*> first_hop(n, nullptr);
    using QEntry = std::pair<double, std::size_t>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[src] = 0.0;
    pq.push({0.0, src});

    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (Link* link : nodes[u]->links()) {
        if (!link->is_up()) continue;
        const std::size_t v = index.at(link->peer(nodes[u].get()));
        const double w = link->params(nodes[u].get()).delay.to_seconds() + 1e-9;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          first_hop[v] = (u == src) ? link : first_hop[u];
          pq.push({dist[v], v});
        }
      }
    }

    for (const auto& [addr, owner] : owners) {
      if (owner == nodes[src].get()) continue;
      if (Link* hop = first_hop[index.at(owner)]) routes[src][addr] = hop;
    }
  }
  return routes;
}

/// Few distinct delays, so equal-cost paths (and their tie-breaks) are common.
Duration random_delay(Rng& rng) {
  static constexpr int kMs[] = {0, 1, 1, 2, 5, 10};
  return Duration::ms(kMs[rng.next_below(std::size(kMs))]);
}

Link* random_link(Network& net, Rng& rng) {
  const auto& nodes = net.nodes();
  Node* a = nodes[rng.next_below(nodes.size())].get();
  Node* b = nodes[rng.next_below(nodes.size())].get();
  while (b == a) b = nodes[rng.next_below(nodes.size())].get();
  LinkParams ab{.rate_bps = 1e6, .delay = random_delay(rng)};
  LinkParams ba = ab;
  if (rng.chance(0.3)) ba.delay = random_delay(rng);  // asymmetric
  return net.connect(a, b, ab, ba);
}

TEST(RoutingDifferential, LazyOwnerTablesMatchPerAddressRebuild) {
  constexpr int kSeeds = 40;
  constexpr int kMutations = 60;
  for (int s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = cb::test::seed_or(5000) + static_cast<std::uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    sim::Simulator sim(seed);
    Network net(sim);

    const std::size_t n_nodes = 2 + rng.next_below(11);
    for (std::size_t i = 0; i < n_nodes; ++i) net.add_node(std::to_string(i));
    // Sparse draws leave some topologies disconnected.
    std::vector<Link*> links;
    const std::size_t n_links = rng.next_below(2 * n_nodes);
    for (std::size_t i = 0; i < n_links; ++i) links.push_back(random_link(net, rng));

    std::map<Ipv4Addr, Node*> owners;
    auto register_random = [&] {
      const Ipv4Addr addr = net.alloc_address(10);
      Node* owner = net.nodes()[rng.next_below(net.nodes().size())].get();
      net.register_address(addr, owner, /*proxy_only=*/rng.chance(0.5));
      owners[addr] = owner;
    };
    for (std::size_t i = 0; i < n_nodes; ++i) register_random();

    // Model of the laziness contract: a node's table is rebuilt exactly when
    // it is stale and the node looks up an address some other node owns.
    std::vector<bool> stale(n_nodes, true);
    std::uint64_t expected_rebuilds = 0;
    for (int step = 0; step < kMutations; ++step) {
      SCOPED_TRACE("step=" + std::to_string(step));
      bool moves_routes = false;
      const std::uint64_t kind = rng.next_below(6);
      if (kind == 0 && !links.empty()) {
        Link* l = links[rng.next_below(links.size())];
        l->set_up(!l->is_up());
        moves_routes = true;
      } else if (kind == 1 && !links.empty()) {
        Link* l = links[rng.next_below(links.size())];
        Node* from = rng.chance(0.5) ? l->endpoint_a() : l->endpoint_b();
        LinkParams p = l->params(from);
        p.delay = random_delay(rng);
        moves_routes = p.delay != l->params(from).delay;
        l->set_params(from, p);
      } else if (kind == 2) {
        links.push_back(random_link(net, rng));
        moves_routes = true;
      } else if (kind == 3 && !links.empty()) {
        // A rate-only change never makes a table stale.
        Link* l = links[rng.next_below(links.size())];
        LinkParams p = l->params(l->endpoint_a());
        p.rate_bps = rng.uniform(1e5, 1e9);
        l->set_params(l->endpoint_a(), p);
      } else if (kind == 4 || owners.empty()) {
        register_random();
      } else {
        auto it = owners.begin();
        std::advance(it, static_cast<long>(rng.next_below(owners.size())));
        net.unregister_address(it->first);
        owners.erase(it);
      }
      if (moves_routes) stale.assign(n_nodes, true);
      // Now and then, rebuild eagerly instead of on demand.
      if (rng.chance(0.2)) {
        net.recompute_routes();
        expected_rebuilds += n_nodes;
        stale.assign(n_nodes, false);
      }

      const std::vector<HostRoutes> expected = reference_routes(net, owners);
      for (std::size_t i = 0; i < n_nodes; ++i) {
        const Node& node = *net.nodes()[i];
        for (const auto& [addr, owner] : owners) {
          if (owner != &node && stale[i]) {
            ++expected_rebuilds;
            stale[i] = false;
          }
          auto it = expected[i].find(addr);
          Link* want = it == expected[i].end() ? nullptr : it->second;
          ASSERT_EQ(net.next_hop(node, addr), want)
              << node.name() << " -> " << addr.to_string() << " (owner " << owner->name() << ")";
        }
      }
      EXPECT_EQ(net.route_rebuilds(), expected_rebuilds);
    }
  }
}

}  // namespace
}  // namespace cb::net
