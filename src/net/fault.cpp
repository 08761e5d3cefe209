#include "src/net/fault.hpp"

#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/assert.hpp"
#include "src/util/rng.hpp"

namespace dici::net {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

/// Patience for a delayed/duplicated frame's actual send: if the inner
/// link is wedged past this, the frame is simply lost — which is a
/// legal outcome of a faulty link anyway.
constexpr auto kInjectedSendTimeout = 100ms;

/// The diagnostic a kRecvSide corruption carries — same shape as the
/// transports' checksum message, because the frame really would fail
/// frame_checksum_ok after the flips.
std::string recv_corrupt_error(const FrameHeader& header) {
  return std::string("fault: payload checksum mismatch injected on ") +
         msg_type_name(header.msg_type()) + " seq " +
         std::to_string(header.seq) + " from src " +
         std::to_string(header.src) + " — frame dropped";
}

}  // namespace

FaultStats FaultController::stats() const {
  FaultStats total;
  for (const DirectionCounters* dir : {&to_node_, &to_coordinator_}) {
    total.forwarded += dir->forwarded.load(std::memory_order_relaxed);
    total.dropped += dir->dropped.load(std::memory_order_relaxed);
    total.delayed += dir->delayed.load(std::memory_order_relaxed);
    total.duplicated += dir->duplicated.load(std::memory_order_relaxed);
    total.corrupted += dir->corrupted.load(std::memory_order_relaxed);
  }
  return total;
}

struct FaultInjectingEndpoint::Impl {
  std::unique_ptr<Endpoint> inner;
  std::shared_ptr<FaultController> controller;
  FaultController::DirectionCounters* counters = nullptr;
  FaultRates rates;
  Mode mode = Mode::kSendSide;

  /// Serializes senders into `inner` (the caller's thread and the delay
  /// thread) and guards the decision stream — one rng, one schedule.
  std::mutex mu;
  Rng rng{0};

  // Delayed-delivery queue, ordered by due time. Only populated when
  // rates.delay > 0 (the thread is started lazily with the endpoint).
  std::mutex delay_mu;
  std::condition_variable delay_cv;
  std::multimap<Clock::time_point, Frame> delayed;
  bool stop = false;
  std::thread delayer;

  void deliver_loop() {
    std::unique_lock lock(delay_mu);
    while (!stop) {
      if (delayed.empty()) {
        delay_cv.wait(lock);
        continue;
      }
      const auto due = delayed.begin()->first;
      if (delay_cv.wait_until(lock, due, [&] { return stop; })) break;
      const auto now = Clock::now();
      while (!stop && !delayed.empty() && delayed.begin()->first <= now) {
        Frame frame = std::move(delayed.begin()->second);
        delayed.erase(delayed.begin());
        lock.unlock();
        {
          std::lock_guard send_lock(mu);
          (void)inner->send(frame, kInjectedSendTimeout);
        }
        lock.lock();
      }
    }
  }

  void enqueue_delayed(Frame frame, Clock::time_point due) {
    {
      std::lock_guard lock(delay_mu);
      delayed.emplace(due, std::move(frame));
    }
    delay_cv.notify_one();
  }

  // --- kRecvSide intake ----------------------------------------------------
  // The stash of frames held back at intake (delayed) or to be handed
  // out twice (duplicated), ordered by delivery due time. Touched only
  // on the receiver thread (one per endpoint, per the Endpoint
  // contract), so the only lock taken is `mu` for the decision stream.

  struct Held {
    Frame frame;
    bool corrupt = false;  ///< deliver as kCorrupt when due
  };
  std::multimap<Clock::time_point, Held> pending;

  enum class Intake { kDeliver, kSwallowed, kCorrupted };

  /// Apply the four-draw schedule to a frame that just arrived. May
  /// mutate *frame (corruption), stash copies (duplicate/delay), or
  /// swallow it (drop, or delay — it re-emerges from the stash).
  Intake apply_intake(Frame* frame, std::string* error) {
    std::lock_guard lock(mu);
    if (!controller->armed() || !rates.any()) return Intake::kDeliver;
    const double u_drop = rng.uniform01();
    const double u_corrupt = rng.uniform01();
    const double u_duplicate = rng.uniform01();
    const double u_delay = rng.uniform01();
    if (u_drop < rates.drop) {
      counters->dropped.fetch_add(1, std::memory_order_relaxed);
      return Intake::kSwallowed;
    }
    const bool corrupt = u_corrupt < rates.corrupt && !frame->payload.empty();
    const bool duplicate = u_duplicate < rates.duplicate;
    const bool delay = u_delay < rates.delay;
    if (corrupt) {
      const std::uint64_t flips = rng.between(1, 4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t pos =
            static_cast<std::size_t>(rng.below(frame->payload.size()));
        frame->payload[pos] ^= static_cast<std::uint8_t>(rng.between(1, 255));
      }
      counters->corrupted.fetch_add(1, std::memory_order_relaxed);
    }
    if (duplicate) {
      pending.emplace(Clock::now(), Held{*frame, corrupt});
      counters->duplicated.fetch_add(1, std::memory_order_relaxed);
    }
    if (delay) {
      const auto lateness =
          std::chrono::nanoseconds(rng.between(1, rates.delay_ns));
      pending.emplace(Clock::now() + lateness, Held{std::move(*frame), corrupt});
      counters->delayed.fetch_add(1, std::memory_order_relaxed);
      return Intake::kSwallowed;
    }
    if (corrupt) {
      *error = recv_corrupt_error(frame->header);
      return Intake::kCorrupted;
    }
    if (!duplicate)
      counters->forwarded.fetch_add(1, std::memory_order_relaxed);
    return Intake::kDeliver;
  }

  RecvResult recv_injected(Frame* frame, std::chrono::nanoseconds timeout,
                           std::string* error) {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      const auto now = Clock::now();
      // Stashed frames (duplicates, delayed originals) due by now go
      // out first, in due order.
      if (!pending.empty() && pending.begin()->first <= now) {
        Held held = std::move(pending.begin()->second);
        pending.erase(pending.begin());
        *frame = std::move(held.frame);
        if (held.corrupt) {
          *error = recv_corrupt_error(frame->header);
          return RecvResult::kCorrupt;
        }
        return RecvResult::kFrame;
      }
      if (now >= deadline) return RecvResult::kTimeout;
      // Bound the inner wait by the next stash due time so a delayed
      // frame is never starved behind a quiet wire.
      auto wait_until = deadline;
      if (!pending.empty() && pending.begin()->first < wait_until)
        wait_until = pending.begin()->first;
      const auto r = inner->recv(frame, wait_until - now, error);
      if (r == RecvResult::kTimeout) continue;  // a stash entry may be due
      if (r != RecvResult::kFrame) return r;    // real kClosed/kError/kCorrupt
      if (controller->partitioned()) {
        // The wire is cut: the arrival vanishes, exactly as a sender-
        // side partition would have eaten it before the syscall.
        counters->dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      switch (apply_intake(frame, error)) {
        case Intake::kDeliver:
          return RecvResult::kFrame;
        case Intake::kCorrupted:
          return RecvResult::kCorrupt;
        case Intake::kSwallowed:
          break;  // keep receiving within the deadline
      }
    }
  }
};

FaultInjectingEndpoint::FaultInjectingEndpoint(
    std::unique_ptr<Endpoint> inner,
    std::shared_ptr<FaultController> controller, Direction direction,
    const FaultRates& rates, std::uint64_t seed, Mode mode)
    : impl_(std::make_unique<Impl>()) {
  DICI_CHECK(inner != nullptr && controller != nullptr);
  DICI_CHECK_FMT(rates.delay == 0.0 || rates.delay_ns >= 1,
                 "FaultRates::delay_ns = %llu with a nonzero delay rate: a "
                 "delayed frame needs a positive lateness bound",
                 static_cast<unsigned long long>(rates.delay_ns));
  impl_->inner = std::move(inner);
  impl_->counters = direction == Direction::kToNode
                        ? &controller->to_node_
                        : &controller->to_coordinator_;
  impl_->controller = std::move(controller);
  impl_->rates = rates;
  impl_->mode = mode;
  impl_->rng.reseed(seed);
  // kRecvSide delays re-emerge from the intake stash on the receiver's
  // own thread — only the send side needs the delivery thread.
  if (rates.delay > 0.0 && mode == Mode::kSendSide)
    impl_->delayer = std::thread([impl = impl_.get()] { impl->deliver_loop(); });
}

FaultInjectingEndpoint::~FaultInjectingEndpoint() {
  if (impl_->delayer.joinable()) {
    {
      std::lock_guard lock(impl_->delay_mu);
      impl_->stop = true;
    }
    impl_->delay_cv.notify_all();
    impl_->delayer.join();
  }
}

Endpoint::SendResult FaultInjectingEndpoint::send(
    const Frame& frame, std::chrono::nanoseconds timeout) {
  Impl& im = *impl_;
  if (im.mode == Mode::kRecvSide) {
    // Intake-side injectors perturb arrivals only; the matching outer
    // kSendSide decorator (or nothing) owns the outgoing direction.
    return im.inner->send(frame, timeout);
  }
  if (im.controller->partitioned()) {
    // The wire is cut: the frame vanishes and the sender is none the
    // wiser — partition is indistinguishable from very aggressive drop.
    im.counters->dropped.fetch_add(1, std::memory_order_relaxed);
    return SendResult::kOk;
  }
  std::lock_guard lock(im.mu);
  if (!im.controller->armed() || !im.rates.any())
    return im.inner->send(frame, timeout);

  // Four independent draws per frame, always in this order, so the
  // decision schedule is a pure function of (seed, frame index) — the
  // rates only decide which decisions fire, never how many bits the
  // stream consumes.
  const double u_drop = im.rng.uniform01();
  const double u_corrupt = im.rng.uniform01();
  const double u_duplicate = im.rng.uniform01();
  const double u_delay = im.rng.uniform01();

  if (u_drop < im.rates.drop) {
    im.counters->dropped.fetch_add(1, std::memory_order_relaxed);
    return SendResult::kOk;
  }
  const bool corrupt =
      u_corrupt < im.rates.corrupt && !frame.payload.empty();
  const bool duplicate = u_duplicate < im.rates.duplicate;
  const bool delay = u_delay < im.rates.delay;

  Frame damaged;
  const Frame* outgoing = &frame;
  if (corrupt) {
    // Flip 1-4 payload bytes AFTER the checksum was sealed; the header
    // stays intact so the receiver's stream stays framed and reports
    // kCorrupt for exactly this frame.
    damaged = frame;
    const std::uint64_t flips = im.rng.between(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t pos =
          static_cast<std::size_t>(im.rng.below(damaged.payload.size()));
      damaged.payload[pos] ^=
          static_cast<std::uint8_t>(im.rng.between(1, 255));
    }
    outgoing = &damaged;
    im.counters->corrupted.fetch_add(1, std::memory_order_relaxed);
  }
  if (duplicate)
    im.counters->duplicated.fetch_add(1, std::memory_order_relaxed);

  if (delay) {
    const auto lateness =
        std::chrono::nanoseconds(im.rng.between(1, im.rates.delay_ns));
    const auto due = Clock::now() + lateness;
    im.enqueue_delayed(*outgoing, due);
    if (duplicate) im.enqueue_delayed(*outgoing, due + lateness);
    im.counters->delayed.fetch_add(1, std::memory_order_relaxed);
    return SendResult::kOk;
  }

  const SendResult result = im.inner->send(*outgoing, timeout);
  if (duplicate && result == SendResult::kOk)
    (void)im.inner->send(*outgoing, kInjectedSendTimeout);
  if (!corrupt && !duplicate)
    im.counters->forwarded.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Endpoint::RecvResult FaultInjectingEndpoint::recv(
    Frame* frame, std::chrono::nanoseconds timeout, std::string* error) {
  // kSendSide injects on the way out (decorate both ends of a pair to
  // cover both directions), so its receive is a pass-through. kRecvSide
  // plays the far direction of a process link at intake.
  if (impl_->mode == Mode::kSendSide)
    return impl_->inner->recv(frame, timeout, error);
  return impl_->recv_injected(frame, timeout, error);
}

void FaultInjectingEndpoint::close() { impl_->inner->close(); }

SendStats FaultInjectingEndpoint::send_stats() const {
  // Inner stats: what actually crossed the wire (duplicates and late
  // deliveries included, dropped frames not).
  return impl_->inner->send_stats();
}

FaultyPair make_faulty_transport_pair(TransportKind kind,
                                      const FaultConfig& config) {
  auto [coordinator_end, node_end] = make_transport_pair(kind);
  auto controller = std::make_shared<FaultController>();
  if (config.armed) controller->arm();
  std::uint64_t state = config.seed;
  const std::uint64_t to_node_seed = splitmix64(state);
  const std::uint64_t to_coordinator_seed = splitmix64(state);
  FaultyPair pair;
  pair.coordinator = std::make_unique<FaultInjectingEndpoint>(
      std::move(coordinator_end), controller,
      FaultInjectingEndpoint::Direction::kToNode, config.to_node,
      to_node_seed);
  pair.node = std::make_unique<FaultInjectingEndpoint>(
      std::move(node_end), controller,
      FaultInjectingEndpoint::Direction::kToCoordinator,
      config.to_coordinator, to_coordinator_seed);
  pair.controller = std::move(controller);
  return pair;
}

}  // namespace dici::net
