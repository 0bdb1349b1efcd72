#include "hostspeed.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

namespace {

// Nominal part times: medians over the measurements of 20 benchmark runs on
// a shared 4-vCPU x86-64 KVM guest (Xeon, AVX-512), Release build. They only
// fix the scale: scaled times read as if the reference had taken exactly
// these times.
constexpr double kNominalMemoryS = 0.0300;
constexpr double kNominalEventsS = 0.0362;
constexpr double kNominalMultiplyS = 0.0291;
constexpr double kNominalCodeS = 0.0338;

volatile std::uint64_t g_sink;  // keeps the work from being optimised away

struct Lcg {
  std::uint64_t x;
  std::uint64_t next() { return x = x * 6364136223846793005ULL + 1442695040888963407ULL; }
};

// Read-modify-write at random slots of a 16 MiB table.
std::uint64_t memory_part(Lcg& rng) {
  static std::vector<std::uint64_t> table(std::size_t{1} << 21);
  const std::size_t mask = table.size() - 1;
  for (int i = 0; i < 6'000'000; ++i) {
    const std::uint64_t v = rng.next();
    table[(v >> 29) & mask] += v;
  }
  return table[rng.next() & mask];
}

// A small discrete-event loop: a time-ordered queue of callbacks too large
// for std::function's inline buffer, each updating a hash map and an ordered
// map and scheduling its successor.
std::uint64_t events_part(Lcg& rng) {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    bool operator>(const Event& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::function<void()>> callbacks;
  std::unordered_map<std::uint64_t, std::uint64_t> state;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::uint64_t now = 0, seq = 0, acc = 0;
  auto schedule = [&](std::uint64_t delay) {
    const std::uint64_t a = rng.next(), b = rng.next(), c = rng.next();
    callbacks.emplace_back([&state, &ordered, &acc, a, b, c] {
      state[a & 0xFFFF] += b;
      ordered.emplace(c >> 40, a);
      if (ordered.size() > 4096) ordered.erase(ordered.begin());
      acc += c;
    });
    queue.push(Event{now + delay, seq++});
  };
  for (int i = 0; i < 2048; ++i) schedule(rng.next() & 0xFFF);
  for (int i = 0; i < 120'000; ++i) {
    const Event e = queue.top();
    queue.pop();
    now = e.at;
    callbacks[e.seq]();
    schedule(rng.next() & 0xFFF);
  }
  return acc + state.size() + ordered.size();
}

// Multiply-accumulate chains over 16 64-bit limbs.
std::uint64_t multiply_part(Lcg& rng) {
  std::uint64_t limbs[16];
  for (std::uint64_t& l : limbs) l = rng.next() | 1;
  for (int k = 0; k < 1'400'000; ++k) {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 16; ++i) {
      carry += static_cast<unsigned __int128>(limbs[i]) * limbs[(i + k) & 15] + (carry >> 64);
      limbs[i] = static_cast<std::uint64_t>(carry) | 1;
    }
  }
  return limbs[rng.next() & 15];
}

// One of many distinct small functions: each instance has its own constants
// and branches, so that together they occupy far more code than the L1
// instruction cache and the branch predictors can hold.
template <std::uint64_t N>
std::uint64_t branchy(std::uint64_t x) {
  for (int i = 0; i < 4; ++i) {
    x ^= x >> (N % 23 + 7);
    x *= 0x9E3779B97F4A7C15ULL + 2 * N;
    if (x & (1ULL << (N % 61))) {
      x += N * 0x632BE59BD9B4E019ULL;
    } else {
      x = (x << (N % 13 + 1)) | (x >> (63 - N % 13));
    }
  }
  return x;
}

template <std::size_t... I>
constexpr auto branchy_table(std::index_sequence<I...>) {
  return std::array<std::uint64_t (*)(std::uint64_t), sizeof...(I)>{&branchy<I>...};
}

// Calls through a table of 1024 distinct functions in a random order.
std::uint64_t code_part(Lcg& rng) {
  static constexpr auto table = branchy_table(std::make_index_sequence<1024>{});
  std::uint64_t acc = 0;
  for (int i = 0; i < 1'500'000; ++i) acc += table[rng.next() >> 54](acc);
  return acc;
}

}  // namespace

double HostSpeed::slowdown() const {
  return std::pow(memory_s / kNominalMemoryS * events_s / kNominalEventsS * multiply_s /
                      kNominalMultiplyS * code_s / kNominalCodeS,
                  0.25);
}

HostSpeed measure_host_speed() {
  Lcg rng{0x9E3779B97F4A7C15ULL};
  HostSpeed h;
  auto t0 = Clock::now();
  g_sink = memory_part(rng);
  h.memory_s = seconds_since(t0);
  t0 = Clock::now();
  g_sink = events_part(rng);
  h.events_s = seconds_since(t0);
  t0 = Clock::now();
  g_sink = multiply_part(rng);
  h.multiply_s = seconds_since(t0);
  t0 = Clock::now();
  g_sink = code_part(rng);
  h.code_s = seconds_since(t0);
  return h;
}

HostSpeed mean(const HostSpeed& a, const HostSpeed& b) {
  return {0.5 * (a.memory_s + b.memory_s), 0.5 * (a.events_s + b.events_s),
          0.5 * (a.multiply_s + b.multiply_s), 0.5 * (a.code_s + b.code_s)};
}

}  // namespace perfbench
