// A topic-based event bus connecting the platform substrates: PON devices
// publish link events, the orchestrator publishes lifecycle events, and the
// security monitors (FIM, Falco-like) subscribe to the streams they audit.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "genio/common/sim_clock.hpp"

namespace genio::common {

struct Event {
  SimTime time;
  std::string topic;                       // dotted: "pon.onu.registered"
  std::map<std::string, std::string> attrs;  // free-form payload

  std::string attr(const std::string& key, const std::string& fallback = "") const {
    const auto it = attrs.find(key);
    return it == attrs.end() ? fallback : it->second;
  }
};

/// Synchronous pub/sub. Subscribers match on a topic prefix ("pon." receives
/// every PON event). Delivery order is subscription order — deterministic.
class EventBus {
 public:
  using Handler = std::function<void(const Event&)>;

  explicit EventBus(const SimClock* clock = nullptr) : clock_(clock) {}

  /// Subscribe to all events whose topic starts with `topic_prefix`.
  /// Returns a subscription id usable with unsubscribe(). Subscribing from
  /// inside a handler is safe; the new subscriber first sees the NEXT event.
  int subscribe(std::string topic_prefix, Handler handler) {
    subscribers_.push_back({next_id_, std::move(topic_prefix), std::move(handler), true});
    return next_id_++;
  }

  /// Safe to call from inside a handler: during delivery the subscriber is
  /// tombstoned (it receives nothing further) and erased once the
  /// outermost publish unwinds.
  void unsubscribe(int id) {
    if (publish_depth_ > 0) {
      for (auto& sub : subscribers_) {
        if (sub.id == id) sub.alive = false;
      }
      needs_compaction_ = true;
      return;
    }
    std::erase_if(subscribers_, [id](const Subscriber& s) { return s.id == id; });
  }

  void publish(std::string topic, std::map<std::string, std::string> attrs = {}) {
    Event event{clock_ ? clock_->now() : SimTime{}, std::move(topic), std::move(attrs)};
    ++published_;
    // Index-iterate over the subscriber count at entry: handlers may
    // subscribe (appends — delivered from the next event on) or
    // unsubscribe (tombstones) without invalidating the traversal. The
    // handler runs in place: a deque's push_back keeps references to its
    // elements valid, and nothing is erased until the outermost publish.
    ++publish_depth_;
    const std::size_t count = subscribers_.size();
    for (std::size_t i = 0; i < count; ++i) {
      const Subscriber& sub = subscribers_[i];
      if (!sub.alive) continue;
      if (event.topic.rfind(sub.prefix, 0) != 0) continue;
      sub.handler(event);
    }
    if (--publish_depth_ == 0 && needs_compaction_) {
      std::erase_if(subscribers_, [](const Subscriber& s) { return !s.alive; });
      needs_compaction_ = false;
    }
  }

  std::uint64_t published_count() const { return published_; }

 private:
  struct Subscriber {
    int id;
    std::string prefix;
    Handler handler;
    bool alive = true;
  };

  const SimClock* clock_;
  std::deque<Subscriber> subscribers_;
  int next_id_ = 1;
  std::uint64_t published_ = 0;
  int publish_depth_ = 0;
  bool needs_compaction_ = false;
};

}  // namespace genio::common
