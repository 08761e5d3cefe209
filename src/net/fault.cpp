#include "src/net/fault.hpp"

#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

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

/// The diagnostic an intake corruption carries — same shape as the
/// transports' checksum message, because the frame really would fail
/// frame_checksum_ok after the flips.
std::string intake_corrupt_error(const FrameHeader& header) {
  return std::string("fault: payload checksum mismatch injected on ") +
         msg_type_name(header.msg_type()) + " seq " +
         std::to_string(header.seq) + " from src " +
         std::to_string(header.src) + " — frame dropped";
}

/// What one direction's schedule does to one frame.
struct Verdict {
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  Clock::duration lateness{0};  ///< > 0: deliver this much later
};

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

/// The coordinator end's decorator: node-bound frames are perturbed on
/// send, coordinator-bound frames at intake.
class FaultInjectingEndpoint final : public Endpoint {
 public:
  FaultInjectingEndpoint(std::unique_ptr<Endpoint> inner,
                         std::shared_ptr<FaultController> controller,
                         const FaultConfig& config, std::uint64_t to_node_seed,
                         std::uint64_t to_coordinator_seed)
      : inner_(std::move(inner)), controller_(std::move(controller)),
        to_node_{config.to_node, Rng(to_node_seed), &controller_->to_node_},
        to_coordinator_{config.to_coordinator, Rng(to_coordinator_seed),
                        &controller_->to_coordinator_} {
    // Only outgoing delays need the delivery thread; arriving ones
    // re-emerge from the intake stash on the receiver's own thread.
    if (config.to_node.delay > 0.0)
      delayer_ = std::thread([this] { deliver_loop(); });
  }

  ~FaultInjectingEndpoint() override {
    if (!delayer_.joinable()) return;
    {
      std::lock_guard lock(delay_mu_);
      stop_ = true;
    }
    delay_cv_.notify_all();
    delayer_.join();
  }

  SendResult send(const Frame& frame,
                  std::chrono::nanoseconds timeout) override {
    if (controller_->partitioned()) {
      // The wire is cut: the frame vanishes and the sender is none the
      // wiser — partition is indistinguishable from very aggressive drop.
      to_node_.counters->dropped.fetch_add(1, std::memory_order_relaxed);
      return SendResult::kOk;
    }
    std::lock_guard lock(send_mu_);
    if (!controller_->armed() || !to_node_.rates.any())
      return inner_->send(frame, timeout);
    const Verdict verdict = to_node_.decide(frame);
    if (verdict.drop) return SendResult::kOk;
    Frame damaged;
    const Frame* outgoing = &frame;
    if (verdict.corrupt) {
      damaged = frame;
      to_node_.damage(&damaged);
      outgoing = &damaged;
    }
    if (verdict.lateness > Clock::duration::zero()) {
      const auto due = Clock::now() + verdict.lateness;
      enqueue_delayed(*outgoing, due);
      if (verdict.duplicate) enqueue_delayed(*outgoing, due + verdict.lateness);
      return SendResult::kOk;
    }
    const SendResult result = inner_->send(*outgoing, timeout);
    if (verdict.duplicate && result == SendResult::kOk)
      (void)inner_->send(*outgoing, kInjectedSendTimeout);
    return result;
  }

  RecvResult recv(Frame* frame, std::chrono::nanoseconds timeout,
                  std::string* error) override {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      const auto now = Clock::now();
      // Stashed frames (duplicates, delayed originals) due by now go
      // out first, in due order.
      if (!stash_.empty() && stash_.begin()->first <= now) {
        Held held = std::move(stash_.begin()->second);
        stash_.erase(stash_.begin());
        *frame = std::move(held.frame);
        if (held.corrupt) {
          *error = intake_corrupt_error(frame->header);
          return RecvResult::kCorrupt;
        }
        return RecvResult::kFrame;
      }
      if (now >= deadline) return RecvResult::kTimeout;
      // Bound the inner wait by the next stash due time so a delayed
      // frame is never starved behind a quiet wire.
      auto wait_until = deadline;
      if (!stash_.empty() && stash_.begin()->first < wait_until)
        wait_until = stash_.begin()->first;
      const auto r = inner_->recv(frame, wait_until - now, error);
      if (r == RecvResult::kTimeout) continue;  // a stash entry may be due
      if (r != RecvResult::kFrame) return r;    // real kClosed/kError/kCorrupt
      if (controller_->partitioned()) {
        // The wire is cut: the arrival vanishes, exactly as the far
        // side's frames would on a severed link.
        to_coordinator_.counters->dropped.fetch_add(1,
                                                    std::memory_order_relaxed);
        continue;
      }
      if (!controller_->armed() || !to_coordinator_.rates.any())
        return RecvResult::kFrame;
      const Verdict verdict = to_coordinator_.decide(*frame);
      if (verdict.drop) continue;  // swallowed; keep receiving
      if (verdict.corrupt) to_coordinator_.damage(frame);
      if (verdict.duplicate)
        stash_.emplace(Clock::now(), Held{*frame, verdict.corrupt});
      if (verdict.lateness > Clock::duration::zero()) {
        stash_.emplace(Clock::now() + verdict.lateness,
                       Held{std::move(*frame), verdict.corrupt});
        continue;  // re-emerges from the stash when due
      }
      if (verdict.corrupt) {
        *error = intake_corrupt_error(frame->header);
        return RecvResult::kCorrupt;
      }
      return RecvResult::kFrame;
    }
  }

  void close() override { inner_->close(); }

  SendStats send_stats() const override {
    // Inner stats: what actually crossed the wire (duplicates and late
    // deliveries included, dropped frames not).
    return inner_->send_stats();
  }

 private:
  /// One direction's reproducible schedule.
  struct Schedule {
    FaultRates rates;
    Rng rng;
    FaultController::DirectionCounters* counters;

    /// Four independent draws per frame, always in this order, so the
    /// schedule is a pure function of (seed, frame index) — the rates
    /// only decide which decisions fire, never how many draws precede
    /// the next frame's.
    Verdict decide(const Frame& frame) {
      const double u_drop = rng.uniform01();
      const double u_corrupt = rng.uniform01();
      const double u_duplicate = rng.uniform01();
      const double u_delay = rng.uniform01();
      Verdict verdict;
      if (u_drop < rates.drop) {
        counters->dropped.fetch_add(1, std::memory_order_relaxed);
        verdict.drop = true;
        return verdict;
      }
      verdict.corrupt = u_corrupt < rates.corrupt && !frame.payload.empty();
      verdict.duplicate = u_duplicate < rates.duplicate;
      if (u_delay < rates.delay) {
        verdict.lateness =
            std::chrono::nanoseconds(rng.between(1, rates.delay_ns));
      }
      if (verdict.corrupt)
        counters->corrupted.fetch_add(1, std::memory_order_relaxed);
      if (verdict.duplicate)
        counters->duplicated.fetch_add(1, std::memory_order_relaxed);
      if (verdict.lateness > Clock::duration::zero())
        counters->delayed.fetch_add(1, std::memory_order_relaxed);
      if (!verdict.corrupt && !verdict.duplicate &&
          verdict.lateness == Clock::duration::zero())
        counters->forwarded.fetch_add(1, std::memory_order_relaxed);
      return verdict;
    }

    /// Flip 1-4 payload bytes AFTER the checksum was sealed; the header
    /// stays intact so the stream stays framed and exactly this frame
    /// reads as kCorrupt.
    void damage(Frame* frame) {
      const std::uint64_t flips = rng.between(1, 4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto pos =
            static_cast<std::size_t>(rng.below(frame->payload.size()));
        frame->payload[pos] ^= static_cast<std::uint8_t>(rng.between(1, 255));
      }
    }
  };

  /// An arrival held back at intake (delayed) or to be handed out a
  /// second time (duplicated).
  struct Held {
    Frame frame;
    bool corrupt = false;  ///< deliver as kCorrupt when due
  };

  void deliver_loop() {
    std::unique_lock lock(delay_mu_);
    while (!stop_) {
      if (delayed_.empty()) {
        delay_cv_.wait(lock);
        continue;
      }
      const auto due = delayed_.begin()->first;
      if (delay_cv_.wait_until(lock, due, [&] { return stop_; })) break;
      const auto now = Clock::now();
      while (!stop_ && !delayed_.empty() && delayed_.begin()->first <= now) {
        Frame frame = std::move(delayed_.begin()->second);
        delayed_.erase(delayed_.begin());
        lock.unlock();
        {
          std::lock_guard send_lock(send_mu_);
          (void)inner_->send(frame, kInjectedSendTimeout);
        }
        lock.lock();
      }
    }
  }

  void enqueue_delayed(Frame frame, Clock::time_point due) {
    {
      std::lock_guard lock(delay_mu_);
      delayed_.emplace(due, std::move(frame));
    }
    delay_cv_.notify_one();
  }

  std::unique_ptr<Endpoint> inner_;
  std::shared_ptr<FaultController> controller_;

  /// Serializes senders into inner_ (the caller's thread and the delay
  /// thread) and guards to_node_'s decision stream.
  std::mutex send_mu_;
  Schedule to_node_;
  /// Receiver-thread-only, like the intake stash.
  Schedule to_coordinator_;
  std::multimap<Clock::time_point, Held> stash_;

  // Outgoing delayed-delivery queue, ordered by due time; drained by
  // delayer_, which runs only when to_node_ delays frames.
  std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::multimap<Clock::time_point, Frame> delayed_;
  bool stop_ = false;
  std::thread delayer_;
};

std::unique_ptr<Endpoint> decorate_coordinator_end(
    std::unique_ptr<Endpoint> coordinator_end,
    std::shared_ptr<FaultController> controller, const FaultConfig& config,
    std::uint32_t node, std::uint32_t epoch) {
  DICI_CHECK(coordinator_end != nullptr && controller != nullptr);
  for (const FaultRates* rates : {&config.to_node, &config.to_coordinator}) {
    DICI_CHECK_FMT(rates->delay == 0.0 || rates->delay_ns >= 1,
                   "FaultRates::delay_ns = %llu with a nonzero delay rate: "
                   "a delayed frame needs a positive lateness bound",
                   static_cast<unsigned long long>(rates->delay_ns));
  }
  std::uint64_t state =
      config.seed ^ (0x9e3779b97f4a7c15ull * (node + 1ull) + epoch);
  const std::uint64_t to_node_seed = splitmix64(state);
  const std::uint64_t to_coordinator_seed = splitmix64(state);
  return std::make_unique<FaultInjectingEndpoint>(
      std::move(coordinator_end), std::move(controller), config, to_node_seed,
      to_coordinator_seed);
}

}  // namespace dici::net
