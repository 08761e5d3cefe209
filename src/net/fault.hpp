// Deterministic fault injection over any net::Endpoint.
//
// FaultInjectingEndpoint decorates an Endpoint and perturbs one side of
// the traffic, chosen by Mode:
//
//  * kSendSide (the default) — every outgoing frame is independently
//    dropped, delayed, duplicated, and/or payload-corrupted according
//    to per-direction rates drawn from a seeded xoshiro stream — the
//    same seed always produces the same schedule of decisions, so every
//    failure a test or bench observes is reproducible. Decorate both
//    ends of an in-process pair and you cover both directions.
//  * kRecvSide — the same four decisions applied to frames as they
//    ARRIVE (send is a pass-through). This exists for the process
//    transports (fork/tcp), where the node end of the link lives in a
//    spawned child and cannot be decorated: the coordinator's endpoint
//    is double-decorated instead — an inner kRecvSide injector playing
//    the node→coordinator direction at intake, wrapped by an outer
//    kSendSide injector playing coordinator→node on the way out. The
//    decision schedule is a pure function of (seed, arrival index), so
//    runs are reproducible per-receive-order rather than per-send-order
//    — the soak tests assert convergence, not schedule equality.
//
// Failure modes and how the system above survives them:
//   drop      — frame vanishes (returns kOk to the caller, like a
//               switch eating a packet). The coordinator's retry layer
//               re-sends unanswered chunks.
//   delay     — frame is queued and delivered late by a background
//               thread (still in seq order relative to nothing — late
//               frames reorder past punctual ones, exactly like a
//               congested path). Retries may race the late original;
//               chunk ids dedupe the answers.
//   duplicate — frame delivered twice. Same dedupe.
//   corrupt   — 1-4 payload bytes flipped AFTER the checksum was
//               sealed, so the receiver's transport reports kCorrupt
//               and drops exactly that frame; headers are never
//               touched, so the stream stays framed (a real link's
//               CRC-failed frame, not a poisoned stream).
//   partition — FaultController::partition(true) black-holes EVERY
//               frame in both decorated directions until switched off
//               or heal()ed, regardless of rates: the wire is cut, the
//               endpoints don't know it.
//
// The shared FaultController is the live switchboard: arm() starts
// injection, heal() stops it (and lifts a partition); stats() counts
// what was done to the traffic. ClusterConfig carries a FaultConfig and
// the cluster build phase always runs healed — faults arm only once the
// index is serving, because build retries are (deliberately) not a
// thing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/net/transport.hpp"

namespace dici::net {

/// Per-direction injection rates, each a probability in [0, 1] drawn
/// independently per frame.
struct FaultRates {
  double drop = 0.0;
  double delay = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  /// How late a delayed frame is delivered: uniform in (0, delay_ns].
  std::uint64_t delay_ns = 2'000'000;  // 2ms

  bool any() const {
    return drop > 0.0 || delay > 0.0 || duplicate > 0.0 || corrupt > 0.0;
  }
};

struct FaultConfig {
  /// Seed of the per-direction decision streams (direction-salted, so
  /// the two sides of a pair draw different but equally reproducible
  /// schedules).
  std::uint64_t seed = 0x5eed;
  /// Arm injection as soon as the controller exists (for a cluster:
  /// as soon as the build phase completes). When false, faults start
  /// only on an explicit FaultController::arm().
  bool armed = true;
  FaultRates to_node;         ///< coordinator -> node direction
  FaultRates to_coordinator;  ///< node -> coordinator direction

  bool enabled() const { return to_node.any() || to_coordinator.any(); }
};

/// What the injector did to the traffic (both directions summed).
/// `forwarded` counts frames passed through untouched while armed.
struct FaultStats {
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
};

/// The live switchboard shared by the two decorated endpoints of a
/// link. All methods are thread-safe.
class FaultController {
 public:
  void arm() { armed_.store(true, std::memory_order_release); }
  /// Stop injecting and lift any partition. Frames already queued for
  /// delayed delivery still arrive (they are "in flight on the wire").
  void heal() {
    armed_.store(false, std::memory_order_release);
    partitioned_.store(false, std::memory_order_release);
  }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Cut (or restore) the wire: while partitioned, every frame in both
  /// decorated directions is silently dropped, independent of rates and
  /// of armed().
  void partition(bool on) {
    partitioned_.store(on, std::memory_order_release);
  }
  bool partitioned() const {
    return partitioned_.load(std::memory_order_acquire);
  }

  FaultStats stats() const;

 private:
  friend class FaultInjectingEndpoint;

  struct DirectionCounters {
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> delayed{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> corrupted{0};
  };

  std::atomic<bool> armed_{false};
  std::atomic<bool> partitioned_{false};
  DirectionCounters to_node_;
  DirectionCounters to_coordinator_;
};

/// The decorator. Wraps one side of a link; `counters` selects which of
/// the controller's direction slots this side's injections land in.
class FaultInjectingEndpoint final : public Endpoint {
 public:
  enum class Direction { kToNode, kToCoordinator };
  /// Which side of the traffic the four decisions apply to (see the
  /// header comment; kRecvSide is for links whose far end is a spawned
  /// process).
  enum class Mode { kSendSide, kRecvSide };

  FaultInjectingEndpoint(std::unique_ptr<Endpoint> inner,
                         std::shared_ptr<FaultController> controller,
                         Direction direction, const FaultRates& rates,
                         std::uint64_t seed, Mode mode = Mode::kSendSide);
  ~FaultInjectingEndpoint() override;

  SendResult send(const Frame& frame,
                  std::chrono::nanoseconds timeout) override;
  RecvResult recv(Frame* frame, std::chrono::nanoseconds timeout,
                  std::string* error) override;
  void close() override;
  SendStats send_stats() const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A transport pair with both directions decorated and wired to one
/// controller. The controller starts healed unless `config.armed`.
struct FaultyPair {
  std::unique_ptr<Endpoint> coordinator;
  std::unique_ptr<Endpoint> node;
  std::shared_ptr<FaultController> controller;
};

FaultyPair make_faulty_transport_pair(TransportKind kind,
                                      const FaultConfig& config);

}  // namespace dici::net
