// Deterministic fault injection over any net::Endpoint.
//
// decorate_coordinator_end() wraps the coordinator's end of one
// coordinator<->node link — the one end that lives in the coordinator's
// process on every transport, whether the node is a thread here or a
// spawned dici_node child — and perturbs BOTH directions of the link
// from there:
//
//  * coordinator -> node (FaultConfig::to_node) on the way out: every
//    outgoing frame is independently dropped, delayed, duplicated,
//    and/or payload-corrupted before it reaches the wire;
//  * node -> coordinator (FaultConfig::to_coordinator) at intake: the
//    same four decisions applied to frames as they ARRIVE, before the
//    coordinator sees them.
//
// Each direction draws from its own seeded xoshiro stream, derived from
// (FaultConfig::seed, node, epoch): every link — and every re-join
// incarnation of a link — gets its own schedule, and the same seed
// always reproduces it. The outgoing schedule is a pure function of the
// send order, the intake one of the arrival order, so the soak tests
// assert convergence, not schedule equality.
//
// Failure modes and how the system above survives them:
//   drop      — frame vanishes (returns kOk to the caller, like a
//               switch eating a packet). The coordinator's retry layer
//               re-sends unanswered chunks.
//   delay     — frame is delivered late: an outgoing one by a
//               background thread, an arriving one from a stash the
//               receiver drains when it falls due. Late frames reorder
//               past punctual ones, exactly like a congested path.
//               Retries may race the late original; chunk ids dedupe
//               the answers.
//   duplicate — frame delivered twice. Same dedupe.
//   corrupt   — 1-4 payload bytes flipped AFTER the checksum was
//               sealed, so the receiver sees kCorrupt and drops exactly
//               that frame; headers are never touched, so the stream
//               stays framed (a real link's CRC-failed frame, not a
//               poisoned stream).
//   partition — FaultController::partition(true) black-holes EVERY
//               frame in both directions of every decorated link until
//               switched off or heal()ed, regardless of rates: the wire
//               is cut, the endpoints don't know it.
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
  /// Seed of the decision streams. decorate_coordinator_end salts it
  /// with the node id, the link epoch and the direction, so every link
  /// and both of its directions draw different but equally
  /// reproducible schedules.
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

/// The live switchboard shared by every decorated link of a cluster.
/// All methods are thread-safe.
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
  /// directions of every decorated link is silently dropped, independent
  /// of rates and of armed().
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

/// The one fault decoration, used for every transport: wraps the
/// coordinator's end of link `node` in incarnation `epoch`. Node-bound
/// frames take `config.to_node` on send, coordinator-bound frames take
/// `config.to_coordinator` at intake, and `controller` arms, heals and
/// partitions the link and counts what was done to it. The two decision
/// streams are seeded from (config.seed, node, epoch).
std::unique_ptr<Endpoint> decorate_coordinator_end(
    std::unique_ptr<Endpoint> coordinator_end,
    std::shared_ptr<FaultController> controller, const FaultConfig& config,
    std::uint32_t node, std::uint32_t epoch);

}  // namespace dici::net
