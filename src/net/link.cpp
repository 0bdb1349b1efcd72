#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/network.hpp"

namespace cb::net {

namespace {
constexpr std::size_t kMinRing = 16;  // frames in a direction's first ring
}  // namespace

Link::Link(sim::Simulator& sim, Node* a, Node* b, LinkParams a_to_b, LinkParams b_to_a)
    : sim_(sim), a_(a), b_(b), rng_(sim.rng().fork(0x11E4)) {
  ab_.params = a_to_b;
  ab_.to = b;
  ba_.params = b_to_a;
  ba_.to = a;
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

const Link::Counters& Link::counters(const Node* from) {
  Direction& d = dir_from(from);
  advance(d);
  return d.counters;
}

Duration Link::serialization(const Direction& d, const Packet& packet) const {
  return d.params.rate_bps > 0.0 ? Duration::seconds(static_cast<double>(packet.wire_size()) *
                                                     8.0 / d.params.rate_bps)
                                 : Duration::zero();
}

void Link::advance(Direction& d) {
  const TimePoint now = sim_.now();
  while (d.started < d.size) {
    const Frame& f = d.at(d.started);
    if (f.start > now) break;
    const std::size_t bytes = f.packet.wire_size();
    d.unstarted_bytes -= bytes;
    d.counters.sent_packets += 1;
    d.counters.sent_bytes += bytes;
    ++d.started;
  }
}

void Link::set_params(Node* from, const LinkParams& params) {
  Direction& d = dir_from(from);
  if (params.delay != d.params.delay) a_->network().invalidate_routes();
  advance(d);
  d.params = params;
  // Retime the queue behind the last started frame, which keeps its timing.
  for (std::size_t i = d.started; i < d.size; ++i) retime(d, i);
}

const LinkParams& Link::params(Node* from) const { return dir_from(from).params; }

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  a_->network().invalidate_routes();
  if (up) return;
  for (Direction* d : {&ab_, &ba_}) {
    advance(*d);  // frames that began transmitting count as sent
    drops_ += d->size;
    d->ring = {};  // release the frames and the slots of a dead bearer
    d->head = d->size = d->started = d->unstarted_bytes = 0;
    d->landing.cancel();
  }
}

void Link::send(Node* from, Packet packet) {
  if (!up_) {
    ++drops_;
    return;
  }
  Direction& d = dir_from(from);
  advance(d);
  if (d.unstarted_bytes + packet.wire_size() > d.params.queue_bytes) {
    ++drops_;
    return;
  }
  d.unstarted_bytes += packet.wire_size();
  push(d).packet = std::move(packet);
  retime(d, d.size - 1);
  if (d.size == 1) arm(d);
}

void Link::retime(Direction& d, std::size_t i) {
  Frame& f = d.at(i);
  const TimePoint now = sim_.now();
  f.start = i > 0 ? std::max(now, d.at(i - 1).finish) : now;
  f.finish = f.start + serialization(d, f.packet);
  f.landing = f.finish + d.params.delay;
  if (i > 0) f.landing = std::max(f.landing, d.at(i - 1).landing);
}

Link::Frame& Link::push(Direction& d) {
  if (d.size == d.ring.size()) {
    // Grow to the next power of two, unwrapping the ring to start at 0.
    std::vector<Frame> bigger(std::max(kMinRing, d.ring.size() * 2));
    for (std::size_t i = 0; i < d.size; ++i) bigger[i] = std::move(d.at(i));
    d.ring = std::move(bigger);
    d.head = 0;
  }
  return d.at(d.size++);
}

void Link::arm(Direction& d) {
  d.landing = sim_.schedule_at(d.at(0).landing, [this, &d] { land(d); });
}

void Link::land(Direction& d) {
  advance(d);  // the head has started: a frame lands after it finishes
  Frame& head = d.at(0);
  Packet packet = std::move(head.packet);
  d.head = (d.head + 1) & (d.ring.size() - 1);
  --d.size;
  --d.started;
  // Schedule the next landing before delivering, so whatever the receiver
  // does (send on this link, bring it down) sees a consistent direction.
  if (d.size > 0) arm(d);

  if (rng_.chance(d.params.loss)) {
    ++drops_;
    return;
  }
  // The corruption roll only consumes randomness when the fault is armed,
  // so enabling it never perturbs other links' loss streams.
  if (d.params.corrupt > 0.0 && !packet.payload.empty() && rng_.chance(d.params.corrupt)) {
    // mutate() clones the (shared) buffer so other holders of this payload
    // — e.g. a retransmit copy — keep the clean bytes.
    packet.payload.mutate()[rng_.next_below(packet.payload.size())] ^= 0x5A;
    ++corrupted_;
  }
  ++delivered_;
  d.counters.delivered_packets += 1;
  d.counters.delivered_bytes += packet.wire_size();
  d.to->deliver(std::move(packet));
}

}  // namespace cb::net
