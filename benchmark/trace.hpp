// In-memory spans around the benchmark's calls into the library.
//
// A span has a name, a start, an end, the span that caused it (0 = a
// root) and a request id (the ticket id for submit/wait, 0 otherwise).
// Spans stay in memory while the workload runs and are written out when
// it ends, each with its self time: its duration minus the part of its
// interval that its child spans cover. A disabled tracer records
// nothing, so untraced runs pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id, or 0 when disabled. Thread-safe.
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t request = 0);
  /// Close span `id` (ignored for 0). Thread-safe.
  void end(std::uint64_t id);
  /// Attach a request id learned after the span opened (a submit's
  /// ticket id). Ignored for 0. Thread-safe.
  void set_request(std::uint64_t id, std::uint64_t request);

  /// The trace file body: every span with its self time, plus totals per
  /// span name. A span still open ends at the call and is marked open.
  std::string to_json(const std::string& workload, std::uint64_t seed) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::uint64_t request;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_; span id = index + 1
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
        std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace bench
