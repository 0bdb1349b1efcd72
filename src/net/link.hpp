// Bidirectional point-to-point link with per-direction rate, propagation
// delay, random loss, and a drop-tail byte queue.
//
// Links model everything from the radio bearer (rate set by the serving
// cell's scheduler / MNO rate-limit policy) to WAN paths toward EC2 regions.
#pragma once

#include <deque>
#include <functional>

#include "common/time.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace cb::net {

class Node;

/// Transmission characteristics of one link direction.
struct LinkParams {
  /// Bits per second; 0 means "no serialization delay" (infinite rate).
  double rate_bps = 0.0;
  /// One-way propagation delay.
  Duration delay = Duration::zero();
  /// Independent per-packet drop probability, applied at the receiver.
  double loss = 0.0;
  /// Independent per-packet probability that one payload byte is flipped in
  /// flight (fault injection: degraded/noisy paths). The packet still
  /// arrives; receivers must survive the garbage.
  double corrupt = 0.0;
  /// Drop-tail queue capacity in bytes (packets beyond this are dropped).
  std::size_t queue_bytes = 256 * 1024;
};

/// A link between two nodes. Construction attaches it to both.
class Link {
 public:
  Link(sim::Simulator& sim, Node* a, Node* b, LinkParams a_to_b, LinkParams b_to_a);

  /// Enqueue a packet from `from` toward the other endpoint.
  void send(Node* from, Packet packet);

  /// Replace the transmission parameters of the `from` -> peer direction
  /// (queued packets keep flowing under the new parameters). A delay change
  /// can move routes, so it marks the network's next-hop tables stale.
  void set_params(Node* from, const LinkParams& params);
  const LinkParams& params(Node* from) const;

  /// Administratively enable/disable. Bringing a link down clears queues —
  /// in-flight radio frames are lost on detach, exactly the case MPTCP must
  /// survive. Either transition marks the network's next-hop tables stale.
  void set_up(bool up);
  bool is_up() const { return up_; }

  Node* endpoint_a() const { return a_; }
  Node* endpoint_b() const { return b_; }
  Node* peer(const Node* n) const;

  /// Cumulative drops (queue overflow + random loss), for diagnostics.
  std::uint64_t drops() const { return drops_; }
  std::uint64_t delivered() const { return delivered_; }
  /// Packets delivered with an injected payload corruption.
  std::uint64_t corrupted() const { return corrupted_; }

  /// Per-direction byte/packet counters — the PDCP/RLC-style statistics the
  /// UE baseband meter and the bTelco accounting read.
  struct Counters {
    std::uint64_t sent_packets = 0;
    std::uint64_t sent_bytes = 0;       // entered the link (post-queue)
    std::uint64_t delivered_packets = 0;
    std::uint64_t delivered_bytes = 0;  // survived loss, reached the peer
  };
  const Counters& counters(const Node* from) const { return dir_from(from).counters; }

 private:
  struct Direction {
    LinkParams params;
    std::deque<Packet> queue;
    std::size_t queued_bytes = 0;
    bool transmitting = false;
    Counters counters;
  };

  Direction& dir_from(const Node* from);
  const Direction& dir_from(const Node* from) const;
  void start_transmit(Direction& d, Node* to);

  sim::Simulator& sim_;
  Node* a_;
  Node* b_;
  Direction ab_;
  Direction ba_;
  bool up_ = true;
  std::uint64_t drops_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t corrupted_ = 0;
  Rng rng_;
};

}  // namespace cb::net
