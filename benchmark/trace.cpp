#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "json.hpp"

namespace bench {

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return 0;
  const double start = now_us();
  std::lock_guard lock(mu_);
  spans_.push_back({name, parent, request, start, -1.0});
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const double end = now_us();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_us = end;
}

void Tracer::set_request(std::uint64_t id, std::uint64_t request) {
  if (id == 0) return;
  std::lock_guard lock(mu_);
  spans_[id - 1].request = request;
}

std::string Tracer::to_json(const std::string& workload,
                            std::uint64_t seed) const {
  const double now = now_us();
  std::lock_guard lock(mu_);
  const std::size_t n = spans_.size();

  // A span still open is written as ending now, and marked open.
  std::vector<double> end(n);
  for (std::size_t i = 0; i < n; ++i)
    end[i] = spans_[i].end_us >= 0 ? spans_[i].end_us : now;

  // Self time = duration minus the union of the children's intervals,
  // clipped to the parent (a child on another thread may outlive it).
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i)
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  std::vector<double> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> cover;
    for (const std::size_t c : children[i]) {
      const double lo = std::max(s.start_us, spans_[c].start_us);
      const double hi = std::min(end[i], end[c]);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = s.start_us;
    for (const auto& [lo, hi] : cover) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    self[i] = std::max(0.0, (end[i] - s.start_us) - covered);
  }

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0, self_us = 0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < n; ++i) {
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_us += end[i] - spans_[i].start_us;
    t.self_us += self[i];
  }

  const auto ns = [](double us) {
    return static_cast<std::uint64_t>(std::llround(us * 1e3));
  };
  JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("by_name").begin_object();
  for (const auto& [name, t] : by_name) {
    w.key(name).begin_object();
    w.key("count").value(t.count);
    w.key("total_ms").value(t.total_us / 1e3);
    w.key("self_ms").value(t.self_us / 1e3);
    w.end_object();
  }
  w.end_object();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("id").value(std::uint64_t{i + 1});
    w.key("name").value(s.name);
    w.key("parent").value(s.parent);
    w.key("request").value(s.request);
    w.key("start_ns").value(ns(s.start_us));
    w.key("end_ns").value(ns(end[i]));
    w.key("self_ns").value(ns(self[i]));
    if (s.end_us < 0) w.key("open").value(true);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace bench
