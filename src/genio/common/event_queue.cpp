#include "genio/common/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace genio::common {

EventQueue::EventId EventQueue::schedule_at(SimTime at, Callback fn) {
  // The clock never moves backwards, so past times clamp to now: the event
  // fires on the next drain, exactly like a zero-delay schedule.
  const EventId id{std::max(at.nanos(), clock_->now().nanos()), next_seq_++};
  events_.emplace(id, std::move(fn));
  ++stats_.scheduled;
  stats_.max_pending = std::max<std::uint64_t>(stats_.max_pending, events_.size());
  return id;
}

EventQueue::EventId EventQueue::schedule_after(SimTime delay, Callback fn) {
  return schedule_at(clock_->now() + delay, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  // A running event has already left the map, so its own token misses too.
  if (!id.valid() || events_.erase(id) == 0) return false;
  ++stats_.cancelled;
  return true;
}

std::size_t EventQueue::run_until(SimTime t) {
  if (t < clock_->now()) {
    throw std::invalid_argument("EventQueue::run_until: target time is in the past");
  }
  std::size_t executed = 0;
  while (!events_.empty() && events_.begin()->first.at <= t.nanos()) {
    // The node leaves the map before its callback runs, so the callback
    // may schedule and cancel freely.
    auto node = events_.extract(events_.begin());
    const SimTime at(node.key().at);
    if (at > clock_->now()) clock_->advance_to(at);
    ++stats_.executed;
    ++executed;
    node.mapped()();
  }
  if (clock_->now() < t) clock_->advance_to(t);
  return executed;
}

std::optional<SimTime> EventQueue::next_event_time() const {
  if (events_.empty()) return std::nullopt;
  return SimTime(events_.begin()->first.at);
}

}  // namespace genio::common
