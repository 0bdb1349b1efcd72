#include "net/link.hpp"

#include <stdexcept>

#include "net/network.hpp"

namespace cb::net {

Link::Link(sim::Simulator& sim, Node* a, Node* b, LinkParams a_to_b, LinkParams b_to_a)
    : sim_(sim), a_(a), b_(b), rng_(sim.rng().fork(0x11E4)) {
  ab_.params = a_to_b;
  ba_.params = b_to_a;
  a_->attach_link(this);
  b_->attach_link(this);
}

Node* Link::peer(const Node* n) const {
  if (n == a_) return b_;
  if (n == b_) return a_;
  throw std::logic_error("Link::peer: node not on this link");
}

Link::Direction& Link::dir_from(const Node* from) {
  if (from == a_) return ab_;
  if (from == b_) return ba_;
  throw std::logic_error("Link: node not on this link");
}

const Link::Direction& Link::dir_from(const Node* from) const {
  return const_cast<Link*>(this)->dir_from(from);
}

void Link::set_params(Node* from, const LinkParams& params) {
  if (params.delay != this->params(from).delay) a_->network().invalidate_routes();
  dir_from(from).params = params;
}

const LinkParams& Link::params(Node* from) const { return dir_from(from).params; }

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  a_->network().invalidate_routes();
  if (!up) {
    for (Direction* d : {&ab_, &ba_}) {
      drops_ += d->queue.size();
      d->queue.clear();
      d->queued_bytes = 0;
      // A transmission in progress is abandoned; the completion event will
      // notice the link is down and deliver nothing.
    }
  }
}

void Link::send(Node* from, Packet packet) {
  if (!up_) {
    ++drops_;
    return;
  }
  Direction& d = dir_from(from);
  if (d.queued_bytes + packet.wire_size() > d.params.queue_bytes) {
    ++drops_;
    return;
  }
  d.queued_bytes += packet.wire_size();
  d.queue.push_back(std::move(packet));
  if (!d.transmitting) start_transmit(d, peer(from));
}

void Link::start_transmit(Direction& d, Node* to) {
  if (d.queue.empty()) {
    d.transmitting = false;
    return;
  }
  d.transmitting = true;
  Packet packet = std::move(d.queue.front());
  d.queue.pop_front();
  d.queued_bytes -= packet.wire_size();

  const Duration serialization =
      d.params.rate_bps > 0.0
          ? Duration::seconds(static_cast<double>(packet.wire_size()) * 8.0 / d.params.rate_bps)
          : Duration::zero();

  // After serialization finishes, the next packet can start while this one
  // propagates.
  d.counters.sent_packets += 1;
  d.counters.sent_bytes += packet.wire_size();

  sim_.schedule(serialization, [this, &d, to, packet = std::move(packet)]() mutable {
    if (up_) {
      const Duration propagation = d.params.delay;
      if (rng_.chance(d.params.loss)) {
        ++drops_;
      } else {
        // The corruption roll only consumes randomness when the fault is
        // armed, so enabling it never perturbs other links' loss streams.
        if (d.params.corrupt > 0.0 && !packet.payload.empty() &&
            rng_.chance(d.params.corrupt)) {
          // mutate() clones the (shared) buffer so other holders of this
          // payload — e.g. a retransmit copy — keep the clean bytes.
          packet.payload.mutate()[rng_.next_below(packet.payload.size())] ^= 0x5A;
          ++corrupted_;
        }
        ++delivered_;
        d.counters.delivered_packets += 1;
        d.counters.delivered_bytes += packet.wire_size();
        sim_.schedule(propagation, [this, to, packet = std::move(packet)]() mutable {
          if (up_) to->deliver(std::move(packet));
        });
      }
    }
    start_transmit(d, to);
  });
}

}  // namespace cb::net
