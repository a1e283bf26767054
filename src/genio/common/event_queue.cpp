#include "genio/common/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace genio::common {

EventQueue::EventId EventQueue::schedule_at(SimTime at, Callback fn) {
  Event ev;
  // The clock never moves backwards, so past times clamp to now: the event
  // fires on the next drain, exactly like a zero-delay schedule.
  ev.at = std::max(at.nanos(), clock_->now().nanos());
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  const EventId id{ev.seq};
  pending_.insert(ev.seq);
  ++stats_.scheduled;
  stats_.max_pending = std::max<std::uint64_t>(stats_.max_pending, pending_.size());
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
  return id;
}

EventQueue::EventId EventQueue::schedule_after(SimTime delay, Callback fn) {
  return schedule_at(clock_->now() + delay, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || pending_.erase(id.seq) == 0) return false;
  // The record itself is lazily swept when it reaches the top of the heap;
  // cancellation is O(1).
  ++stats_.cancelled;
  return true;
}

std::size_t EventQueue::run_until(SimTime t) {
  if (t < clock_->now()) {
    throw std::invalid_argument("EventQueue::run_until: target time is in the past");
  }
  std::size_t executed = 0;
  while (auto ev = pop_due(t.nanos())) {
    if (SimTime(ev->at) > clock_->now()) clock_->advance_to(SimTime(ev->at));
    ++stats_.executed;
    ++executed;
    ev->fn();
  }
  if (clock_->now() < t) clock_->advance_to(t);
  return executed;
}

std::optional<SimTime> EventQueue::next_event_time() {
  sweep_cancelled();
  if (heap_.empty()) return std::nullopt;
  return SimTime(heap_.front().at);
}

void EventQueue::sweep_cancelled() {
  while (!heap_.empty() && !pending_.contains(heap_.front().seq)) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
  }
}

std::optional<EventQueue::Event> EventQueue::pop_due(std::int64_t limit) {
  sweep_cancelled();
  if (heap_.empty() || heap_.front().at > limit) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), heap_after);
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  pending_.erase(ev.seq);
  return ev;
}

}  // namespace genio::common
