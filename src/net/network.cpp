#include "net/network.hpp"

#include <limits>
#include <queue>
#include <stdexcept>

namespace cb::net {

Node* Network::add_node(const std::string& name) {
  nodes_.push_back(std::make_unique<Node>(*this, nodes_.size(), name));
  tables_.emplace_back();
  return nodes_.back().get();
}

Link* Network::connect(Node* a, Node* b, const LinkParams& params) {
  return connect(a, b, params, params);
}

Link* Network::connect(Node* a, Node* b, const LinkParams& a_to_b, const LinkParams& b_to_a) {
  links_.push_back(std::make_unique<Link>(sim_, a, b, a_to_b, b_to_a));
  invalidate_routes();
  return links_.back().get();
}

void Network::register_address(Ipv4Addr addr, Node* owner, bool proxy_only) {
  if (!addr.valid()) throw std::invalid_argument("register_address: invalid");
  address_owner_[addr] = owner;
  if (!proxy_only) owner->add_address(addr);
}

void Network::unregister_address(Ipv4Addr addr) {
  if (auto it = address_owner_.find(addr); it != address_owner_.end()) {
    it->second->remove_address(addr);
    address_owner_.erase(it);
  }
}

Node* Network::owner_of(Ipv4Addr addr) const {
  auto it = address_owner_.find(addr);
  return it == address_owner_.end() ? nullptr : it->second;
}

Ipv4Addr Network::alloc_address(std::uint8_t subnet_high8) {
  std::uint32_t& next = next_host_[subnet_high8];
  ++next;
  if (next >= (1u << 24)) throw std::runtime_error("alloc_address: subnet exhausted");
  return Ipv4Addr(static_cast<std::uint32_t>(subnet_high8) << 24 | next);
}

Link* Network::next_hop(const Node& from, Ipv4Addr dst) {
  const Node* owner = owner_of(dst);
  if (owner == nullptr || owner == &from) return nullptr;
  RouteTable& table = tables_[from.index()];
  if (table.version != topology_version_) rebuild_routes(from.index());
  // A node added since the last rebuild has no links yet: unreachable.
  const std::size_t to = owner->index();
  return to < table.next_hop.size() ? table.next_hop[to] : nullptr;
}

void Network::recompute_routes() {
  for (std::size_t src = 0; src < nodes_.size(); ++src) rebuild_routes(src);
}

void Network::rebuild_routes(std::size_t src) {
  // Dijkstra from `src` over up links; weight = propagation delay + a tiny
  // hop cost so zero-delay meshes still prefer fewer hops.
  const std::size_t n = nodes_.size();
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
    for (Link* link : nodes_[u]->links()) {
      if (!link->is_up()) continue;
      const std::size_t v = link->peer(nodes_[u].get())->index();
      const double w = link->params(nodes_[u].get()).delay.to_seconds() + 1e-9;
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        first_hop[v] = (u == src) ? link : first_hop[u];
        pq.push({dist[v], v});
      }
    }
  }

  RouteTable& table = tables_[src];
  table.next_hop = std::move(first_hop);
  table.version = topology_version_;
  ++route_rebuilds_;
}

}  // namespace cb::net
