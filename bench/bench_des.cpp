// Discrete-event core bench: the event queue (one ordered map on
// (time, seq)) and the carrier-scale PON fabric built on it.
//   scheduler  raw EventQueue drain: a seeded mixed workload (near-term
//              events, far-future events, cancellations, zero-delay
//              self-reschedules), run on EventQueue and on a compiled-in
//              std::multimap reference queue taking turns batch by batch in
//              one process. EventQueue's speed relative to the reference is
//              gated, so the floor does not move with the host's speed.
//              Both executed (timestamp, index) traces are FNV-digested and
//              must equal the digest recorded when a calendar-queue backend
//              still cross-checked a binary heap.
//   carrier    the headline scale point: 100 OLT sites x 100 ONUs = 10k
//              subscribers with per-ONU Poisson generators and per-site
//              125 us DBA cycles, all events on one queue. Measures
//              events/sec through the drain loop, delivered frames, the
//              modeled bytes-per-ONU footprint (arena high-water + ONU
//              objects), and the arena reuse ratio.
//   identity   a 4 x 16 fabric run must reproduce the delivered-payload
//              digest and delivery count recorded at the same point (the
//              end-to-end order gate for the queue and the data path).
//   sharded    8 single-OLT fabrics, each its own clock+queue (the
//              documented sharding model). Serial leaf times feed an LPT
//              model for 1/2/4/8 workers (CI hosts pin
//              hardware_concurrency to 1, so scaling is modeled from
//              measured leaves); a real thread-pool run must
//              reproduce the serial runs' delivery digests.
// Invariants (exit nonzero if any breaks):
//   * both scheduler trace digests == the recorded digest;
//   * identity arm: delivered digest and count == the recorded ones;
//   * sharded arm: pool-run digests == serial-run digests;
//   * carrier arm covers >= 100 OLTs and >= 10,000 ONUs;
// and on uninstrumented builds (bench_util.hpp's kSanitized) additionally:
//   * EventQueue drains the scheduler workload >= kQueueOverReference
//     times as fast as the multimap reference (median over passes);
//   * carrier drain >= 100k events/sec;
//   * modeled footprint <= 2 KB per ONU (smoke runs measure about 372 B:
//     a 264-byte Onu plus its arena share; the 632-byte GponCipher sits
//     out of line and only ONUs with an active session key allocate
//     one); arena reuse ratio >= 0.5.
// Each timed section warms up with ~1/10 of its timed work first.
// carrier_eps is best-of-3 segments — host interference only ever slows a
// run down, so the max over repeats is the jitter-stable estimator the
// 100k floor compares; queue_eps (EventQueue's best pass) is informational.
// Writes
// BENCH_des.json (or --out PATH); `--smoke` shrinks event counts and sim
// horizons for CI.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/event_queue.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/common/thread_pool.hpp"
#include "genio/sim/fabric.hpp"

namespace gc = genio::common;
namespace gs = genio::sim;

namespace {

using genio::bench::Clock;
using genio::bench::kSanitized;
using genio::bench::seconds_since;
using genio::bench::Spread;
using genio::bench::spread;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = (h ^ ((v >> shift) & 0xff)) * 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------------- scheduler arm

// Trace digests of the scheduler workload in smoke and full mode, recorded
// from a build where the calendar and heap backends agreed on them.
constexpr std::uint64_t kSmokeTraceDigest = 0x75bbdd280a804ff8ull;
constexpr std::uint64_t kFullTraceDigest = 0x1d38d61508a9e919ull;

// EventQueue must drain the scheduler workload at least this many times as
// fast as MultimapReference. On a 4-vCPU Xeon (GCC 12, -O2 -g) 95 smoke runs
// read 0.800-0.869x in the host's fast and slow states alike, and a copy
// whose EventQueue takes about 25 % longer per event (an rdtsc spin after
// each callback) read 0.642-0.705x over 65 runs in three series and failed
// every one (E-DES2).
constexpr double kQueueOverReference = 0.75;

// The compiled-in yardstick for EventQueue, with its schedule/cancel/drain
// contract: a std::multimap on time (equal keys keep insertion order, so
// ties run in schedule order) whose cancel() finds the seq among its time's
// entries and erases it at once. Like EventQueue it holds one tree node per
// live event and nothing else, so host effects cancel in the ratio. Its
// token is a type of its own, never EventQueue's EventId.
class MultimapReference {
 public:
  struct EventId {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
  };

  explicit MultimapReference(gc::SimClock* clock) : clock_(clock) {}

  EventId schedule_after(gc::SimTime delay, std::function<void()> fn) {
    const EventId id{(clock_->now() + std::max(delay, gc::SimTime{})).nanos(), next_seq_++};
    events_.emplace(id.at, Entry{id.seq, std::move(fn)});
    return id;
  }

  bool cancel(EventId id) {
    auto [it, last] = events_.equal_range(id.at);
    for (; it != last; ++it) {
      if (it->second.seq == id.seq) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::size_t run_for(gc::SimTime dt) {
    const gc::SimTime until = clock_->now() + dt;
    std::size_t executed = 0;
    while (!events_.empty() && events_.begin()->first <= until.nanos()) {
      auto node = events_.extract(events_.begin());
      clock_->advance_to(std::max(gc::SimTime(node.key()), clock_->now()));
      ++executed;
      node.mapped().fn();
    }
    clock_->advance_to(std::max(until, clock_->now()));
    return executed;
  }

 private:
  struct Entry {
    std::uint64_t seq;
    std::function<void()> fn;
  };
  gc::SimClock* clock_;
  std::uint64_t next_seq_ = 1;
  std::multimap<std::int64_t, Entry> events_;
};

// The scheduler workload on one `Queue`, one batch at a time: each batch
// schedules a seeded mix of near-term and far-future events, cancellations
// and zero-delay self-reschedules, then drains 4 ms of sim time. Every
// executed callback folds (timestamp, index) into the trace digest.
template <typename Queue>
class SchedulerWorkload {
 public:
  SchedulerWorkload(std::uint64_t seed, int events_per_batch)
      : queue_(&clock_), rng_(seed), events_per_batch_(events_per_batch) {
    live_.reserve(static_cast<std::size_t>(events_per_batch));
  }

  void run_batch() {
    for (int i = 0; i < events_per_batch_; ++i) {
      const double draw = rng_.uniform01();
      if (draw < 0.60) {
        // Near-term: within ~10 ms, frequent timestamp collisions.
        live_.push_back(queue_.schedule_after(
            gc::SimTime(static_cast<std::int64_t>(rng_.uniform(10'000'000))), record()));
      } else if (draw < 0.72) {
        // Far future: seconds out, far past the near-term traffic.
        live_.push_back(queue_.schedule_after(
            gc::SimTime::from_seconds(static_cast<double>(rng_.uniform(100)) + 1.0),
            record()));
      } else if (draw < 0.87 && !live_.empty()) {
        (void)queue_.cancel(live_[rng_.index(live_.size())]);
      } else {
        // Zero-delay self-reschedule: two pops for one schedule call.
        live_.push_back(queue_.schedule_after(
            gc::SimTime(static_cast<std::int64_t>(rng_.uniform(5'000'000))),
            [this] { (void)queue_.schedule_after(gc::SimTime{}, record()); }));
      }
    }
    (void)queue_.run_for(gc::SimTime::from_millis(4));
    live_.clear();  // ids past their window are dead weight; forget them
  }

  void drain_tail() { (void)queue_.run_for(gc::SimTime::from_seconds(200)); }

  std::uint64_t executed() const { return executed_; }
  std::uint64_t digest() const { return digest_; }

 private:
  // One pointer of capture: the callback fits std::function's inline
  // buffer, so the queues, not the allocator, dominate the timing.
  auto record() {
    return [this] {
      digest_ = fnv_mix(digest_, static_cast<std::uint64_t>(clock_.now().nanos()));
      digest_ = fnv_mix(digest_, executed_++);
    };
  }

  gc::SimClock clock_;
  Queue queue_;
  gc::Rng rng_;
  int events_per_batch_;
  std::uint64_t digest_ = 14695981039346656037ull;
  std::uint64_t executed_ = 0;
  std::vector<typename Queue::EventId> live_;
};

struct SchedulerPass {
  double queue_ms = 0.0;      // EventQueue
  double reference_ms = 0.0;  // MultimapReference
  std::uint64_t events = 0;
  bool digest_match = false;  // both traces == the recorded digest
};

// One pass of the workload on a fresh EventQueue and a fresh reference
// queue, taking turns batch by batch, so both see the same host conditions
// down to a millisecond or so.
SchedulerPass drive_scheduler(std::uint64_t seed, int batches, int events_per_batch,
                              std::uint64_t expected_digest) {
  SchedulerWorkload<gc::EventQueue> queue(seed, events_per_batch);
  SchedulerWorkload<MultimapReference> reference(seed, events_per_batch);
  const auto turn = [&](auto& workload, int batch) {
    const auto start = Clock::now();
    if (batch < batches) {
      workload.run_batch();
    } else {
      workload.drain_tail();  // the far-future tail, once at the end
    }
    return seconds_since(start) * 1e3;
  };
  SchedulerPass pass;
  for (int batch = 0; batch <= batches; ++batch) {
    pass.queue_ms += turn(queue, batch);
    pass.reference_ms += turn(reference, batch);
  }
  pass.events = queue.executed();
  pass.digest_match = queue.digest() == expected_digest &&
                      reference.digest() == expected_digest &&
                      reference.executed() == pass.events;
  return pass;
}

struct SchedulerResult {
  std::uint64_t events = 0;  // executed per pass
  double queue_eps = 0.0;    // best EventQueue pass (informational)
  Spread queue_ms, reference_ms;
  double over_reference = 0.0;  // median over passes of reference / EventQueue time
  bool digest_match = false;
};

SchedulerResult run_scheduler(bool smoke) {
  const int batches = smoke ? 64 : 120;
  const int per_batch = 4000;
  // Sanitized builds check the digests but not the ratio: one pass.
  const int passes = kSanitized ? 1 : smoke ? 7 : 15;
  const std::uint64_t seed = 0xde5;
  const std::uint64_t expected = smoke ? kSmokeTraceDigest : kFullTraceDigest;

  (void)drive_scheduler(seed, batches / 8 + 1, per_batch, expected);  // warm-up
  SchedulerResult r;
  r.digest_match = true;
  std::vector<double> queue_ms, reference_ms, over_reference;
  for (int i = 0; i < passes; ++i) {
    const SchedulerPass pass = drive_scheduler(seed, batches, per_batch, expected);
    queue_ms.push_back(pass.queue_ms);
    reference_ms.push_back(pass.reference_ms);
    over_reference.push_back(pass.reference_ms / pass.queue_ms);
    r.events = pass.events;
    r.digest_match = r.digest_match && pass.digest_match;
  }
  r.queue_ms = spread(queue_ms);
  r.reference_ms = spread(reference_ms);
  r.queue_eps = static_cast<double>(r.events) / (r.queue_ms.min / 1e3);
  r.over_reference = spread(over_reference).median;
  return r;
}

// --------------------------------------------------------------- carrier arm

struct CarrierResult {
  int olts = 0;
  int onus = 0;
  double sim_millis = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t delivered_frames = 0;
  std::uint64_t queue_drops = 0;
  double carrier_eps = 0.0;
  double bytes_per_onu = 0.0;
  double arena_reuse = 0.0;
};

CarrierResult run_carrier(bool smoke) {
  gs::FabricConfig config;
  config.olt_count = 100;
  config.onus_per_olt = 100;  // the 10k-subscriber scale point
  config.seed = 0xca44;
  gs::PonFabric fabric(config);

  CarrierResult r;
  r.olts = config.olt_count;
  r.onus = config.olt_count * config.onus_per_olt;

  // Staggered activation storm: one site's discovery window per 100 us.
  for (int site = 0; site < fabric.site_count(); ++site) {
    fabric.schedule_discovery(gc::SimTime::from_micros(100 * (site + 1)), site);
  }
  (void)fabric.run_for(gc::SimTime::from_millis(20));
  fabric.start_traffic();

  const auto warmup = gc::SimTime::from_millis(smoke ? 5 : 20);
  (void)fabric.run_for(warmup);  // arena warm-up + steady-state queues

  // Three equal steady-state segments; the gated carrier_eps is the best
  // segment (see header comment), totals cover the whole horizon.
  const auto segment = gc::SimTime::from_millis(smoke ? 10 : 50);
  const int kSegments = 3;
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::uint64_t before = fabric.events().stats().executed;
    const auto start = Clock::now();
    (void)fabric.run_for(segment);
    const double wall = seconds_since(start);
    const std::uint64_t executed = fabric.events().stats().executed - before;
    r.wall_seconds += wall;
    r.executed += executed;
    r.carrier_eps =
        std::max(r.carrier_eps, static_cast<double>(executed) / wall);
  }
  r.sim_millis = segment.millis() * kSegments;
  r.delivered_frames = fabric.stats().delivered_frames;
  r.queue_drops = fabric.stats().queue_drops;
  r.bytes_per_onu = fabric.modeled_bytes_per_onu();
  double reuse = 0.0;
  for (int s = 0; s < fabric.site_count(); ++s) {
    reuse += fabric.arena(s).stats().reuse_ratio();
  }
  r.arena_reuse = reuse / static_cast<double>(fabric.site_count());
  return r;
}

// -------------------------------------------------------------- identity arm

// Delivered digest and frame count of the identity fabric: the delivery
// stream recorded when the calendar and heap backends agreed on it, as
// folded by sim::fold_delivery.
constexpr std::uint64_t kSmokeIdentityDigest = 0xa6ffab4d10f4a5a4ull;
constexpr std::uint64_t kSmokeIdentityFrames = 1298;
constexpr std::uint64_t kFullIdentityDigest = 0x22ad23e5a40a8ebcull;
constexpr std::uint64_t kFullIdentityFrames = 5180;

struct IdentityResult {
  std::uint64_t delivered_frames = 0;
  bool digest_match = false;
  bool frames_match = false;
};

IdentityResult run_identity(bool smoke) {
  gs::FabricConfig config;
  config.olt_count = 4;
  config.onus_per_olt = 16;
  config.seed = 0x1de;
  gs::PonFabric fabric(config);
  (void)fabric.activate_all();
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(smoke ? 100 : 400));
  IdentityResult r;
  r.delivered_frames = fabric.stats().delivered_frames;
  r.digest_match =
      fabric.delivered_digest() == (smoke ? kSmokeIdentityDigest : kFullIdentityDigest);
  r.frames_match =
      r.delivered_frames == (smoke ? kSmokeIdentityFrames : kFullIdentityFrames);
  return r;
}

// --------------------------------------------------------------- sharded arm

struct ShardedResult {
  std::size_t fabrics = 0;
  std::uint64_t total_events = 0;
  double serial_seconds = 0.0;
  double pool_seconds = 0.0;
  std::vector<std::pair<int, double>> modeled_eps;  // workers -> events/sec
  bool digest_match = true;
};

gs::FabricConfig shard_config(std::size_t shard, bool smoke) {
  gs::FabricConfig config;
  config.olt_count = 1;
  config.onus_per_olt = smoke ? 24 : 48;
  config.seed = 0x5a0 + shard;
  return config;
}

// Build-activate-run one shard to completion; returns (digest, executed).
std::pair<std::uint64_t, std::uint64_t> run_shard(std::size_t shard, bool smoke) {
  gs::PonFabric fabric(shard_config(shard, smoke));
  (void)fabric.activate_all();
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(smoke ? 80 : 250));
  return {fabric.delivered_digest(), fabric.events().stats().executed};
}

ShardedResult run_sharded(bool smoke) {
  constexpr std::size_t kShards = 8;
  ShardedResult r;
  r.fabrics = kShards;

  // Serial leaves: per-shard wall time for the LPT model.
  std::array<double, kShards> leaf_seconds{};
  std::array<std::uint64_t, kShards> serial_digests{};
  (void)run_shard(0, smoke);  // warm-up
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto start = Clock::now();
    const auto [digest, executed] = run_shard(s, smoke);
    leaf_seconds[s] = seconds_since(start);
    serial_digests[s] = digest;
    r.total_events += executed;
    r.serial_seconds += leaf_seconds[s];
  }

  // LPT makespan model: longest leaf first onto the least-loaded worker.
  // CI hosts report hardware_concurrency()==1, so parallel scaling is
  // modeled from the measured leaves rather than timed directly.
  const std::vector<double> leaves(leaf_seconds.begin(), leaf_seconds.end());
  for (const int workers : {1, 2, 4, 8}) {
    const double makespan = genio::bench::lpt_makespan(leaves, workers);
    r.modeled_eps.emplace_back(workers,
                               static_cast<double>(r.total_events) / makespan);
  }

  // Real pool run: correctness (digest identity with the serial runs) plus
  // a wall-clock number that is meaningful wherever threads exist.
  std::array<std::uint64_t, kShards> pool_digests{};
  gc::ThreadPool pool;
  const auto start = Clock::now();
  pool.parallel_for(kShards, [&](std::size_t s) {
    pool_digests[s] = run_shard(s, smoke).first;
  });
  r.pool_seconds = seconds_since(start);
  for (std::size_t s = 0; s < kShards; ++s) {
    if (pool_digests[s] != serial_digests[s]) {
      std::fprintf(stderr, "IDENTITY VIOLATED: shard %zu pool digest differs\n", s);
      r.digest_match = false;
    }
  }
  return r;
}

void write_json(const genio::bench::Args& args, const SchedulerResult& sched,
                const CarrierResult& carrier, const IdentityResult& identity,
                const ShardedResult& sharded, bool invariants_hold) {
  genio::bench::Json json(args.out, "des", args.smoke);
  json.field("warmup", "~1/10 of timed work per section");
  json.object("scheduler").field("events", sched.events).field("queue_eps", sched.queue_eps, 1)
      .field("queue_ms", sched.queue_ms, 3)
      .field("multimap_reference_ms", sched.reference_ms, 3)
      .field("speed_vs_multimap_reference", sched.over_reference, 3)
      .field("speed_floor", kQueueOverReference, 2)
      .field("trace_digest_match", sched.digest_match).close();
  json.object("carrier").field("olts", carrier.olts).field("onus", carrier.onus)
      .field("sim_millis", carrier.sim_millis, 1).field("wall_seconds", carrier.wall_seconds, 3)
      .field("events", carrier.executed).field("carrier_eps", carrier.carrier_eps, 1)
      .field("delivered_frames", carrier.delivered_frames).field("queue_drops", carrier.queue_drops)
      .field("modeled_bytes_per_onu", carrier.bytes_per_onu, 1)
      .field("arena_reuse_ratio", carrier.arena_reuse, 3).close();
  json.object("identity").field("delivered_frames", identity.delivered_frames)
      .field("digest_match", identity.digest_match).field("frames_match", identity.frames_match)
      .close();
  json.object("sharded").field("fabrics", sharded.fabrics).field("events", sharded.total_events)
      .field("serial_seconds", sharded.serial_seconds, 3)
      .field("pool_seconds", sharded.pool_seconds, 3).field("digest_match", sharded.digest_match)
      .array("modeled");
  for (const auto& [workers, eps] : sharded.modeled_eps) {
    json.object().field("workers", workers).field("modeled_eps", eps, 1).close();
  }
  json.close().close();
  json.field("floors_enforced", !kSanitized).field("invariants_hold", invariants_hold);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_des.json");
  const bool smoke = args.smoke;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== discrete-event core: event queue + 10k-ONU fabric, "
              "%u hardware threads%s ===\n\n",
              hw, smoke ? " (smoke)" : "");

  const SchedulerResult sched = run_scheduler(smoke);
  const CarrierResult carrier = run_carrier(smoke);
  const IdentityResult identity = run_identity(smoke);
  const ShardedResult sharded = run_sharded(smoke);

  gc::Table table({"arm", "scale", "events/sec", "notes"});
  table.add_row({"scheduler/EventQueue", std::to_string(sched.events) + " events",
                 gc::format_double(sched.queue_eps, 0),
                 sched.digest_match ? "trace digests pinned" : "TRACE DIVERGED"});
  table.add_row({"carrier",
                 std::to_string(carrier.olts) + " OLT x " +
                     std::to_string(carrier.onus / carrier.olts) + " ONU",
                 gc::format_double(carrier.carrier_eps, 0),
                 gc::format_double(carrier.bytes_per_onu, 0) + " B/ONU, reuse " +
                     gc::format_double(carrier.arena_reuse, 2)});
  table.add_row({"sharded/pool", std::to_string(sharded.fabrics) + " fabrics",
                 gc::format_double(static_cast<double>(sharded.total_events) /
                                       sharded.pool_seconds, 0),
                 "serial " + gc::format_double(sharded.serial_seconds, 2) + "s"});
  std::printf("%s\n", table.render().c_str());

  std::printf("scheduler pass: EventQueue %.2f ms [%.2f, %.2f], multimap reference %.2f ms "
              "[%.2f, %.2f] (%.3fx, floor %.2fx)\n",
              sched.queue_ms.median, sched.queue_ms.q1, sched.queue_ms.q3,
              sched.reference_ms.median, sched.reference_ms.q1, sched.reference_ms.q3,
              sched.over_reference, kQueueOverReference);
  std::printf("identity: %llu frames delivered, digest %s\n",
              static_cast<unsigned long long>(identity.delivered_frames),
              identity.digest_match && identity.frames_match ? "MATCH" : "DIVERGE");
  std::printf("sharded LPT model:");
  for (const auto& [workers, eps] : sharded.modeled_eps) {
    std::printf(" %dw=%.0f", workers, eps);
  }
  std::printf(" events/sec\n\n");

  genio::bench::Gate gate({genio::bench::kInvariants});
  gate.check(sched.digest_match,
             "EventQueue and reference scheduler trace digests == recorded digest");
  gate.check(identity.digest_match && identity.frames_match,
             "fabric delivery digest and count == recorded ones");
  gate.check(sharded.digest_match, "pool-run digests match serial runs");
  gate.check(carrier.olts >= 100 && carrier.onus >= 10000,
             "carrier arm covers >= 100 OLTs and >= 10k ONUs");
  gate.check(carrier.delivered_frames > 0, "carrier fabric delivered traffic");
  if (kSanitized) {
    std::printf("note: throughput floors reported but not enforced — sanitizer "
                "instrumentation distorts event costs\n");
  } else {
    char what[96];
    std::snprintf(what, sizeof(what),
                  "EventQueue >= %.2fx the multimap reference's speed (got %.3fx)",
                  kQueueOverReference, sched.over_reference);
    gate.check(sched.over_reference >= kQueueOverReference, what);
    gate.check(carrier.carrier_eps >= 100'000.0, "carrier drain >= 100k events/sec");
    gate.check(carrier.bytes_per_onu <= 2'048.0, "modeled footprint <= 2 KB/ONU");
    gate.check(carrier.arena_reuse >= 0.5, "arena reuse ratio >= 0.5 at steady state");
  }

  write_json(args, sched, carrier, identity, sharded, gate.ok());
  if (!gate.ok()) {
    std::fprintf(stderr, "\nBENCH FAILED: invariant violations above\n");
    return 1;
  }
  std::printf("all invariants hold\n");
  return 0;
}
