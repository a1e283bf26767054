// Discrete-event core. Everything time-driven in the platform — chaos
// fault injections and reversions (one event per edge), the fabric's DBA
// upstream cycles and per-subscriber traffic generators — schedules
// callbacks here, and advance_time() is "drain events until T"; there is
// no second timeline and no fixed-step polling.
// The scheduler is one ordered map keyed by (time, seq).
//
// Determinism: same-timestamp events run in schedule order (FIFO via a
// monotonic sequence number). A token is its event's key, so cancel()
// erases the entry, and destroys its callback, at once.
// Single-threaded by design — one queue per simulation domain; shard
// domains across the pool for parallel fabrics.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "genio/common/sim_clock.hpp"

namespace genio::common {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Cancellation token and map key: the event's (time, seq), ordered by
  /// time, then seq. Default-constructed tokens are invalid.
  struct EventId {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    bool valid() const { return seq != 0; }
    auto operator<=>(const EventId&) const = default;
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
  /// (not yet executed or running, not already cancelled).
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
  std::optional<SimTime> next_event_time() const;

  std::size_t pending() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const Stats& stats() const { return stats_; }

 private:
  SimClock* clock_;
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  std::map<EventId, Callback> events_;
};

}  // namespace genio::common
