// Bidirectional point-to-point link with per-direction rate, propagation
// delay, random loss, and a drop-tail byte queue.
//
// Links model everything from the radio bearer (rate set by the serving
// cell's scheduler / MNO rate-limit policy) to WAN paths toward EC2 regions.
//
// Each direction is a pipeline (DESIGN.md §8, "Link pipeline"). A packet's
// timing is fixed when the link admits it: it starts transmitting when the
// previous packet's serialization finishes (or at once on an idle link),
// finishes after wire_size × 8 / rate, and lands one propagation delay
// later. Queued and in-flight packets wait in one FIFO ring per direction,
// and the direction keeps exactly one simulator event: the landing of the
// ring's head. So a packet-hop costs one event, not one per stage.
#pragma once

#include <cstdint>
#include <vector>

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
  /// Independent per-packet drop probability, rolled when the packet lands.
  double loss = 0.0;
  /// Independent per-packet probability that one payload byte is flipped in
  /// flight (fault injection: degraded/noisy paths). The packet still
  /// arrives; receivers must survive the garbage.
  double corrupt = 0.0;
  /// Drop-tail queue capacity: the bytes admitted but not yet transmitting
  /// (packets beyond this are dropped).
  std::size_t queue_bytes = 256 * 1024;
};

/// A link between two nodes. Construction attaches it to both.
class Link {
 public:
  Link(sim::Simulator& sim, Node* a, Node* b, LinkParams a_to_b, LinkParams b_to_a);

  /// Admit a packet from `from` toward the other endpoint, or drop it (link
  /// down, or the direction's unstarted bytes would exceed queue_bytes).
  void send(Node* from, Packet packet);

  /// Replace the transmission parameters of the `from` -> peer direction.
  /// Packets that have not started transmitting are retimed under the new
  /// rate and delay; a packet already transmitting or propagating keeps the
  /// timing it started with. Loss and corruption are rolled at landing, so
  /// they apply to every packet still in the link. Landings stay FIFO: after
  /// a delay decrease, a packet lands no earlier than the one ahead of it
  /// (later packets never overtake earlier ones). A delay change can move
  /// routes, so it marks the network's next-hop tables stale.
  void set_params(Node* from, const LinkParams& params);
  const LinkParams& params(Node* from) const;

  /// Administratively enable/disable. Bringing a link down ends its epoch:
  /// every packet queued, transmitting or propagating in either direction
  /// is lost and counted in drops() — in-flight radio frames are lost on
  /// detach, exactly the case MPTCP must survive — even if the link is back
  /// up before the packet would have landed. The rings are emptied and the
  /// pending landings cancelled, so no frame of an earlier epoch survives
  /// to be checked. Either transition marks the network's next-hop tables
  /// stale.
  void set_up(bool up);
  bool is_up() const { return up_; }

  Node* endpoint_a() const { return a_; }
  Node* endpoint_b() const { return b_; }
  Node* peer(const Node* n) const;

  /// Cumulative drops (queue overflow, random loss, and packets lost to a
  /// link-down), for diagnostics.
  std::uint64_t drops() const { return drops_; }
  std::uint64_t delivered() const { return delivered_; }
  /// Packets delivered with an injected payload corruption.
  std::uint64_t corrupted() const { return corrupted_; }

  /// Per-direction byte/packet counters — the PDCP/RLC-style statistics the
  /// UE baseband meter and the bTelco accounting read.
  struct Counters {
    std::uint64_t sent_packets = 0;
    std::uint64_t sent_bytes = 0;       // started transmitting (post-queue)
    std::uint64_t delivered_packets = 0;
    std::uint64_t delivered_bytes = 0;  // survived loss, landed at the peer
  };
  /// Counters of the `from` -> peer direction as of now. The sent side moves
  /// when a packet's transmission starts, so the read first catches the
  /// direction up with the clock.
  const Counters& counters(const Node* from);

 private:
  /// A packet in the pipeline, with the timing fixed at admission (or at the
  /// last retime).
  struct Frame {
    Packet packet;
    TimePoint start;    // transmission begins
    TimePoint finish;   // serialization ends; the next frame may start
    TimePoint landing;  // arrives at the peer
  };

  struct Direction {
    LinkParams params;
    Node* to = nullptr;
    // FIFO ring of frames: [head, head + size) modulo the power-of-two
    // capacity. The first `started` frames have begun transmitting; the
    // rest are the drop-tail queue, holding `unstarted_bytes`.
    std::vector<Frame> ring;
    std::size_t head = 0;
    std::size_t size = 0;
    std::size_t started = 0;
    std::size_t unstarted_bytes = 0;
    sim::EventHandle landing;  // the head's landing, pending iff size > 0
    Counters counters;

    Frame& at(std::size_t i) { return ring[(head + i) & (ring.size() - 1)]; }
  };

  Direction& dir_from(const Node* from);
  const Direction& dir_from(const Node* from) const;
  Duration serialization(const Direction& d, const Packet& packet) const;
  /// Mark the frames whose start time has come as transmitting.
  void advance(Direction& d);
  /// Append a slot at the tail (growing the ring if full) for the caller to fill.
  Frame& push(Direction& d);
  /// Time frame i behind frame i - 1, or from now when it is the head (an
  /// empty direction's transmitter is idle: every earlier frame has landed).
  void retime(Direction& d, std::size_t i);
  void arm(Direction& d);
  void land(Direction& d);

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
