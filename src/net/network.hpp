// Topology manager: owns nodes and links, maps addresses to owner nodes,
// and computes shortest-path routes (Dijkstra over link delay).
//
// Acts as the simulation's routing oracle: nodes forward toward the owner node
// of a destination via per-node next-hop tables, rebuilt on the first forward
// after a link is added, goes up/down, or changes delay (never on address churn).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace cb::net {

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a node owned by this network.
  Node* add_node(const std::string& name);

  /// Connect two nodes with symmetric parameters.
  Link* connect(Node* a, Node* b, const LinkParams& params);
  /// Connect with per-direction parameters.
  Link* connect(Node* a, Node* b, const LinkParams& a_to_b, const LinkParams& b_to_a);

  /// Declare that `addr` is reachable at `owner` (also adds it as a local
  /// address there unless `proxy_only`).
  void register_address(Ipv4Addr addr, Node* owner, bool proxy_only = false);
  void unregister_address(Ipv4Addr addr);
  Node* owner_of(Ipv4Addr addr) const;

  /// Allocate a fresh unique address in `subnet_high8.x.y.z` order.
  Ipv4Addr alloc_address(std::uint8_t subnet_high8);

  /// First link on the shortest up path from `from` to the owner of `dst`
  /// (rebuilding a stale table first); nullptr if unowned, local, or unreachable.
  Link* next_hop(const Node& from, Ipv4Addr dst);

  /// Eagerly rebuild every node's next-hop table. Forwarding never needs
  /// this; it exists to measure the full rebuild cost.
  void recompute_routes();

  sim::Simulator& simulator() { return sim_; }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

  /// Diagnostics: single-source next-hop table rebuilds so far.
  std::uint64_t route_rebuilds() const { return route_rebuilds_; }

 private:
  friend class Link;  // link up/down and delay changes call invalidate_routes()
  void invalidate_routes() { ++topology_version_; }
  void rebuild_routes(std::size_t src);

  struct RouteTable {
    std::uint64_t version = 0;  // topology_version_ at build time; 0 = never
    std::vector<Link*> next_hop;  // by node index; nullptr = unreachable
  };
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<Ipv4Addr, Node*> address_owner_;
  std::unordered_map<std::uint8_t, std::uint32_t> next_host_;
  std::vector<RouteTable> tables_;  // indexed like nodes_
  std::uint64_t topology_version_ = 1;
  std::uint64_t route_rebuilds_ = 0;
};

}  // namespace cb::net
