#include "spans.hpp"

#include <cassert>
#include <cstdio>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int Tracer::begin(std::string name, std::string layer) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end([[maybe_unused]] int id) {
  assert(!open_.empty() && open_.back() == id);  // Scope closes spans in stack order
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.run_id == run_id_) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.name == name && s.run_id == run_id_ ? 1 : 0;
  return n;
}

std::map<std::string, double> Tracer::self_time_by_layer(const std::string& root,
                                                         int run_id) const {
  // Spans nest strictly (a stack), so children never overlap each other and
  // self time is the duration minus the children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<bool> included(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      included[i] = s.name == root && s.run_id == run_id;
    } else {
      const auto p = static_cast<std::size_t>(s.parent);
      included[i] = included[p];
      child_ns[p] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!included[i]) continue;
    const Span& s = spans_[i];
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out += ',';
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"" + s.layer + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"run_id\":%d}}",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.run_id);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
