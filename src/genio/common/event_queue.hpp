// Discrete-event core. Everything time-driven in the platform — chaos
// fault injections and reversions (one event per edge), supervisor
// reconcile ticks, TDMA/DBA upstream cycles, per-subscriber traffic
// generators — schedules callbacks here, and advance_time() is "drain
// events until T"; there is no second timeline and no fixed-step polling.
// The scheduler is a binary heap on (time, seq).
//
// Determinism: same-timestamp events run in schedule order (FIFO via a
// monotonic sequence number). Cancellation is O(1) lazy: the token's seq
// leaves the pending set and the record is swept when it reaches the top.
// Single-threaded by design — one queue per simulation domain; shard
// domains across the pool for parallel fabrics.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "genio/common/sim_clock.hpp"

namespace genio::common {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Cancellation token. Default-constructed tokens are invalid.
  struct EventId {
    std::uint64_t seq = 0;
    bool valid() const { return seq != 0; }
  };

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t max_pending = 0;
  };

  explicit EventQueue(SimClock* clock) : clock_(clock) {}

  SimClock& clock() { return *clock_; }
  const SimClock& clock() const { return *clock_; }

  /// Schedule `fn` at absolute time `at`; times in the past clamp to now
  /// (the clock never moves backwards). Returns a cancellation token.
  EventId schedule_at(SimTime at, Callback fn);
  /// Schedule `fn` at now + delay (negative delays clamp to now).
  EventId schedule_after(SimTime delay, Callback fn);

  /// Cancel a pending event. Returns true iff the event was still pending
  /// (not yet executed, not already cancelled).
  bool cancel(EventId id);

  /// Drain every event with time <= t in (time, seq) order, advancing the
  /// clock to each event before its callback runs, then settle the clock
  /// at t. Callbacks may schedule (including zero-delay self-reschedules,
  /// which run within this drain) and cancel; they must not re-enter
  /// run_until. Returns the number of callbacks executed.
  std::size_t run_until(SimTime t);
  /// run_until(now + dt).
  std::size_t run_for(SimTime dt) { return run_until(clock_->now() + dt); }

  /// Time of the earliest pending event, if any.
  std::optional<SimTime> next_event_time();

  std::size_t pending() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Event {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  // Heap ordering: min on (at, seq).
  static bool heap_after(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  /// Drop cancelled records from the top of the heap.
  void sweep_cancelled();
  /// Remove and return the earliest pending event if its time <= limit.
  std::optional<Event> pop_due(std::int64_t limit);

  SimClock* clock_;
  std::uint64_t next_seq_ = 1;
  std::unordered_set<std::uint64_t> pending_;
  Stats stats_;
  std::vector<Event> heap_;
};

}  // namespace genio::common
