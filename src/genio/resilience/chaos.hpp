// Deterministic chaos/fault-injection engine. Faults are scheduled (or
// drawn probabilistically from a seeded Rng) as ordinary events on the
// platform's EventQueue and applied at registered substrate boundaries:
// PON link flaps and bit-error bursts, ONU churn, node crashes and kubelet
// stalls, SDN controller outages, registry/feed unavailability, TPM
// transient errors. Every fault is revertible and every
// injection/reversion is published on the EventBus ("chaos.fault.injected"
// / "chaos.fault.reverted"), so monitors and tests observe the same
// timeline the substrates experienced.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "genio/common/event_bus.hpp"
#include "genio/common/event_queue.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"

namespace genio::resilience {

using common::EventBus;
using common::EventQueue;
using common::Rng;
using common::SimTime;

enum class FaultKind {
  kPonLinkFlap,      // feeder fiber down: all frames lost
  kPonBitErrorBurst, // bit errors on delivered frames (magnitude = BER)
  kOnuChurn,         // ONU detaches from the tree, reattaches on revert
  kNodeCrash,        // cluster node dies; its pods fail
  kKubeletStall,     // node stops accepting new pods; existing keep running
  kSdnOutage,        // controller unreachable
  kRegistryOutage,   // image registry unreachable
  kFeedOutage,       // vulnerability feed unreachable (SCA goes stale)
  kTpmTransient,     // next ops on the TPM fail (magnitude = op count)
};

std::string to_string(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kPonLinkFlap;
  std::string target;       // registered target name ("odn", "olt-node-1", ...)
  SimTime at{};             // injection time
  SimTime duration{};       // zero = apply only (one-shot faults)
  double magnitude = 0.0;   // kind-specific (BER, TPM failure count)
  int id = 0;               // assigned by schedule()
};

/// Substrate-side handlers. `apply` flips the boundary into its failed
/// state; `revert` restores it. Each runs once per fault, so when two
/// faults overlap on one target the first revert heals it.
struct FaultTarget {
  std::function<void(const FaultSpec&)> apply;
  std::function<void(const FaultSpec&)> revert;
};

class ChaosEngine {
 public:
  struct Stats {
    std::uint64_t injected = 0;
    std::uint64_t reverted = 0;
  };

  /// Fault edges are events on `queue`, at its clock. A pending edge calls
  /// back into the engine, so the engine must outlive every edge the queue
  /// may still run, and it is neither copied nor moved.
  ChaosEngine(EventQueue* queue, EventBus* bus, Rng rng)
      : queue_(queue), bus_(bus), rng_(rng) {}
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Register the failure surface for (kind, target). Scheduling a fault
  /// against an unregistered pair is an error.
  void register_target(FaultKind kind, const std::string& target, FaultTarget handlers);

  /// Schedule one fault; returns its id. Posts one queue event that
  /// injects it at `at` and, when duration > 0, one that reverts it at
  /// `at + duration`. A time already past runs at the next drain, and
  /// edges at equal times run in the queue's (time, seq) order.
  int schedule(FaultSpec spec);

  /// Draw `count` faults uniformly over registered targets, with start
  /// times uniform in [now, now+horizon) and exponentially-distributed
  /// durations (mean `mean_duration`). Deterministic per engine seed.
  std::vector<int> schedule_random(int count, SimTime horizon, SimTime mean_duration);

  /// Schedule a storm of `count` faults of one kind against one target:
  /// start times uniform in [now, now+horizon), exponential durations
  /// (mean `mean_duration`). Unlike schedule_random this does NOT consume
  /// the engine's own generator — the draw comes from an independent
  /// child stream Rng::derive(stream_seed, "<kind>/<target>"), so the
  /// storm timeline depends only on (stream_seed, kind, target), never on
  /// what any other scenario or storm drew first.
  std::vector<int> schedule_storm(FaultKind kind, const std::string& target,
                                  int count, SimTime horizon,
                                  SimTime mean_duration, std::uint64_t stream_seed);

  /// Faults currently applied and not yet reverted.
  std::vector<FaultSpec> active_faults() const;
  bool target_registered(FaultKind kind, const std::string& target) const;
  const Stats& stats() const { return stats_; }
  const std::vector<FaultSpec>& scheduled() const { return schedule_; }

 private:
  struct FaultState {
    bool applied = false;
    bool reverted = false;
  };

  void inject(std::size_t index);
  void revert(std::size_t index);
  std::map<std::string, std::string> event_attrs(const FaultSpec& spec) const;

  EventQueue* queue_;
  EventBus* bus_;
  Rng rng_;
  std::map<std::pair<FaultKind, std::string>, FaultTarget> targets_;
  std::vector<FaultSpec> schedule_;
  std::vector<FaultState> states_;
  int next_id_ = 1;
  Stats stats_;
};

}  // namespace genio::resilience
