// The discrete-event core pinned to a recorded trace: 50 seeded property
// interleavings — random schedules, cancellations, far-future events,
// zero-delay self-reschedules — must execute the (time, index, label)
// trace whose FNV digest was recorded when a second scheduler backend
// still checked it. Directed tests cover FIFO stability at equal
// timestamps, clamping, cancellation semantics (from inside a drain, and
// the callback's release at cancel), far-future ordering, and mass
// cancellation. A TSan section drains independent queues concurrently on
// the thread pool (one queue per domain — the documented sharding model).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "genio/common/event_queue.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/common/thread_pool.hpp"

namespace gc = genio::common;

using gc::EventQueue;
using gc::SimClock;
using gc::SimTime;

namespace {

TEST(EventQueueTest, SameTimestampEventsRunInScheduleOrder) {
  SimClock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    (void)queue.schedule_at(SimTime::from_millis(5), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(queue.run_until(SimTime::from_millis(10)), 32u);
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(clock.now(), SimTime::from_millis(10));
}

TEST(EventQueueTest, PastTimesClampToNow) {
  SimClock clock;
  clock.advance_to(SimTime::from_seconds(10));
  EventQueue queue(&clock);
  bool ran = false;
  (void)queue.schedule_at(SimTime::from_seconds(1), [&ran] { ran = true; });
  ASSERT_TRUE(queue.next_event_time().has_value());
  EXPECT_EQ(*queue.next_event_time(), SimTime::from_seconds(10));
  (void)queue.run_for(SimTime::from_millis(1));
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, RunUntilBackwardsThrows) {
  SimClock clock;
  clock.advance_to(SimTime::from_seconds(5));
  EventQueue queue(&clock);
  EXPECT_THROW((void)queue.run_until(SimTime::from_seconds(1)), std::invalid_argument);
}

TEST(EventQueueTest, CancelSemantics) {
  SimClock clock;
  EventQueue queue(&clock);
  int fired = 0;
  const auto id = queue.schedule_after(SimTime::from_millis(1), [&fired] { ++fired; });
  const auto keep = queue.schedule_after(SimTime::from_millis(2), [&fired] { ++fired; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id)) << "double-cancel must report not-pending";
  EXPECT_FALSE(queue.cancel(EventQueue::EventId{})) << "invalid token";
  (void)queue.run_for(SimTime::from_millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(queue.cancel(keep)) << "executed events are no longer pending";
  EXPECT_EQ(queue.stats().cancelled, 1u);
  EXPECT_EQ(queue.stats().executed, 1u);
}

// A callback cancels an event due at its own time but scheduled after it,
// and a later one: neither runs. The running event has left the queue, so
// its own token is no longer pending.
TEST(EventQueueTest, CallbackCancelsPendingEventsMidDrain) {
  SimClock clock;
  EventQueue queue(&clock);
  std::vector<int> ran;
  EventQueue::EventId self, same_time, later;
  bool cancelled_same_time = false, cancelled_later = false, cancelled_self = true;
  self = queue.schedule_at(SimTime::from_millis(1), [&] {
    ran.push_back(0);
    cancelled_same_time = queue.cancel(same_time);
    cancelled_later = queue.cancel(later);
    cancelled_self = queue.cancel(self);
  });
  same_time = queue.schedule_at(SimTime::from_millis(1), [&ran] { ran.push_back(1); });
  later = queue.schedule_at(SimTime::from_millis(5), [&ran] { ran.push_back(2); });
  EXPECT_EQ(queue.run_until(SimTime::from_millis(10)), 1u);
  EXPECT_EQ(ran, std::vector<int>{0});
  EXPECT_TRUE(cancelled_same_time);
  EXPECT_TRUE(cancelled_later);
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(queue.stats().cancelled, 2u);
  EXPECT_TRUE(queue.empty());
}

// cancel() destroys the callback at once, so what it captured is released
// at the cancel, not hours later when the event would have come due.
TEST(EventQueueTest, CancelReleasesTheCallbackAtOnce) {
  SimClock clock;
  EventQueue queue(&clock);
  auto captured = std::make_shared<int>(0);
  const auto id = queue.schedule_after(SimTime::from_hours(5), [captured] { ++*captured; });
  EXPECT_EQ(captured.use_count(), 2);
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(captured.use_count(), 1);
}

TEST(EventQueueTest, FarFutureEventsRunAfterNearCluster) {
  SimClock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  // A dense near cluster plus events ~hours out: each set runs in time
  // order, the far set only once the clock reaches it.
  for (int i = 0; i < 64; ++i) {
    (void)queue.schedule_after(SimTime::from_micros(10 * (i + 1)),
                               [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 8; ++i) {
    (void)queue.schedule_after(SimTime::from_hours(2) + SimTime::from_millis(i),
                               [&order, i] { order.push_back(1000 + i); });
  }
  (void)queue.run_until(SimTime::from_hours(3));
  ASSERT_EQ(order.size(), 72u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(64 + i)], 1000 + i);
}

TEST(EventQueueTest, ZeroDelaySelfRescheduleRunsWithinOneDrain) {
  SimClock clock;
  EventQueue queue(&clock);
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 10) (void)queue.schedule_after(SimTime{}, hop);
  };
  (void)queue.schedule_after(SimTime::from_millis(1), hop);
  EXPECT_EQ(queue.run_for(SimTime::from_millis(2)), 10u);
  EXPECT_EQ(hops, 10);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, PartialDrainSettlesAtRequestedTime) {
  SimClock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  for (int i = 1; i <= 10; ++i) {
    (void)queue.schedule_at(SimTime::from_millis(i), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(queue.run_until(SimTime::from_millis(4)), 4u);
  EXPECT_EQ(clock.now(), SimTime::from_millis(4));
  EXPECT_EQ(queue.pending(), 6u);
  EXPECT_EQ(queue.run_until(SimTime::from_millis(20)), 6u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, MassCancelThenDrain) {
  SimClock clock;
  EventQueue queue(&clock);
  gc::Rng rng(7);
  std::vector<EventQueue::EventId> ids;
  int fired = 0;
  // Schedule a large population...
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(queue.schedule_after(
        SimTime(static_cast<std::int64_t>(rng.uniform(50'000'000))),
        [&fired] { ++fired; }));
  }
  // ...then cancel seven in eight before draining.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 8 != 0) {
      EXPECT_TRUE(queue.cancel(ids[i]));
    }
  }
  (void)queue.run_for(SimTime::from_millis(100));
  EXPECT_EQ(fired, 4096 / 8);
  EXPECT_EQ(queue.stats().max_pending, 4096u);
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = (h ^ ((v >> shift) & 0xff)) * 1099511628211ull;
  }
  return h;
}

// The property gate: seeded random interleavings of schedule / cancel /
// far-future / zero-delay-reschedule operations. Every recorded event
// carries a label in schedule order, so the FNV digest over each seed's
// executed (time, index, label) trace and its schedule/cancel/execute
// counts pins which event ran when. It was recorded while the heap and
// the removed calendar backend both produced it.
TEST(EventQueueTest, PropertyTracesMatchPinnedDigest) {
  constexpr std::uint64_t kPinnedDigest = 0x1def1ddfceff2143ull;
  std::uint64_t digest = 14695981039346656037ull;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SimClock clock;
    EventQueue queue(&clock);
    gc::Rng rng(seed);
    std::vector<std::array<std::uint64_t, 3>> trace;
    std::vector<EventQueue::EventId> live;
    std::uint64_t labels = 0;
    const auto record = [&queue, &trace](std::uint64_t label) {
      return [&queue, &trace, label] {
        trace.push_back({static_cast<std::uint64_t>(queue.clock().now().nanos()),
                         queue.stats().executed, label});
      };
    };
    for (int round = 0; round < 40; ++round) {
      const int ops = static_cast<int>(rng.uniform(60)) + 1;
      for (int op = 0; op < ops; ++op) {
        const double draw = rng.uniform01();
        if (draw < 0.55) {
          // Near-term event, possibly at an already-used timestamp.
          const auto delay = SimTime(static_cast<std::int64_t>(rng.uniform(2'000'000)));
          live.push_back(queue.schedule_after(delay, record(labels++)));
        } else if (draw < 0.70) {
          // Far-future event, hours past the near-term traffic.
          const auto delay =
              SimTime::from_seconds(static_cast<std::int64_t>(rng.uniform(10'000)) + 1);
          live.push_back(queue.schedule_after(delay, record(labels++)));
        } else if (draw < 0.85 && !live.empty()) {
          (void)queue.cancel(live[rng.index(live.size())]);
        } else {
          // Event that reschedules a recorded event once at zero delay.
          live.push_back(queue.schedule_after(
              SimTime(static_cast<std::int64_t>(rng.uniform(1'000'000))),
              [&queue, &labels, record] {
                (void)queue.schedule_after(SimTime{}, record(labels++));
              }));
        }
      }
      (void)queue.run_for(SimTime(static_cast<std::int64_t>(rng.uniform(3'000'000)) + 1));
    }
    (void)queue.run_for(SimTime::from_seconds(20'000));  // drain the tail
    EXPECT_TRUE(queue.empty()) << "seed " << seed;
    for (const auto& entry : trace) {
      for (const std::uint64_t value : entry) digest = fnv_mix(digest, value);
    }
    digest = fnv_mix(digest, queue.stats().scheduled);
    digest = fnv_mix(digest, queue.stats().cancelled);
    digest = fnv_mix(digest, queue.stats().executed);
  }
  EXPECT_EQ(digest, kPinnedDigest);
}

// Sharding model under TSan: one queue per simulation domain, many domains
// drained concurrently on the pool. No shared mutable state between queues
// means no races to report.
TEST(EventQueueTest, ConcurrentDrainOfIndependentQueues) {
  constexpr std::size_t kDomains = 8;
  std::vector<SimClock> clocks(kDomains);
  std::vector<std::unique_ptr<EventQueue>> queues;
  std::vector<std::uint64_t> sums(kDomains, 0);
  for (std::size_t d = 0; d < kDomains; ++d) {
    queues.push_back(std::make_unique<EventQueue>(&clocks[d]));
    gc::Rng rng(d + 1);
    for (int i = 0; i < 2000; ++i) {
      const auto at = SimTime(static_cast<std::int64_t>(rng.uniform(1'000'000)));
      auto* sum = &sums[d];
      const auto value = static_cast<std::uint64_t>(i);
      (void)queues[d]->schedule_at(at, [sum, value] { *sum += value; });
    }
  }
  gc::ThreadPool pool(4);
  pool.parallel_for(kDomains, [&](std::size_t d) {
    (void)queues[d]->run_until(SimTime::from_seconds(1));
  });
  for (std::size_t d = 0; d < kDomains; ++d) {
    EXPECT_EQ(sums[d], 2000ull * 1999ull / 2ull) << "domain " << d;
    EXPECT_TRUE(queues[d]->empty());
  }
}

}  // namespace
