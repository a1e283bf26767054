// Discrete-event core bench: the binary-heap event queue and the
// carrier-scale PON fabric built on it.
//   scheduler  raw EventQueue drain: a seeded mixed workload (near-term
//              events, far-future events, cancellations, zero-delay
//              self-reschedules) measured as events/sec. The executed
//              (timestamp, index) trace is FNV-digested and must equal the
//              digest recorded when a calendar-queue backend still
//              cross-checked the heap.
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
//              measured leaves); a real work-stealing pool run must
//              reproduce the serial runs' delivery digests.
// Invariants (exit nonzero if any breaks):
//   * scheduler trace digest == the recorded digest;
//   * identity arm: delivered digest and count == the recorded ones;
//   * sharded arm: pool-run digests == serial-run digests;
//   * carrier arm covers >= 100 OLTs and >= 10,000 ONUs;
// and on uninstrumented builds (bench_util.hpp's kSanitized) additionally:
//   * carrier drain >= 100k events/sec;
//   * modeled footprint <= 2 KB per ONU (~0.8 KB measured: a 656-byte
//     Onu plus its arena share; the 16.8 KB GCM context sits out of line
//     and only ONUs with an active session key allocate one, so inlining
//     it again fails here); arena reuse ratio >= 0.5;
//   * with --baseline PATH, heap_eps and carrier_eps >= 0.8x the
//     committed numbers (the >20%-regression CI gate).
// Each timed section warms up with ~1/10 of its timed work first, and the
// two baseline-gated numbers (heap_eps, carrier_eps) are best-of-N
// (5 scheduler passes, 3 carrier segments) — host interference only ever
// slows a run down, so the max over repeats is the jitter-stable estimator
// the 0.8x gate compares. Writes
// BENCH_des.json (or --out PATH); `--smoke` shrinks event counts and sim
// horizons for CI.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
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

struct SchedulerResult {
  std::uint64_t events = 0;  // executed per run
  double heap_eps = 0.0;
  bool digest_match = false;
};

// One full schedule+drain pass of the mixed workload. Returns (executed
// events, trace digest); wall time is measured by the caller.
std::pair<std::uint64_t, std::uint64_t> drive_scheduler(std::uint64_t seed, int batches,
                                                        int events_per_batch) {
  gc::SimClock clock;
  gc::EventQueue queue(&clock);
  gc::Rng rng(seed);
  std::uint64_t digest = 14695981039346656037ull;
  std::uint64_t executed = 0;
  const auto record = [&] {
    digest = fnv_mix(digest, static_cast<std::uint64_t>(clock.now().nanos()));
    digest = fnv_mix(digest, executed++);
  };
  std::vector<gc::EventQueue::EventId> live;
  live.reserve(static_cast<std::size_t>(events_per_batch));
  for (int batch = 0; batch < batches; ++batch) {
    for (int i = 0; i < events_per_batch; ++i) {
      const double draw = rng.uniform01();
      if (draw < 0.60) {
        // Near-term: within ~10 ms, frequent timestamp collisions.
        live.push_back(queue.schedule_after(
            gc::SimTime(static_cast<std::int64_t>(rng.uniform(10'000'000))),
            record));
      } else if (draw < 0.72) {
        // Far future: seconds out, far past the near-term traffic.
        live.push_back(queue.schedule_after(
            gc::SimTime::from_seconds(static_cast<double>(rng.uniform(100)) + 1.0),
            record));
      } else if (draw < 0.87 && !live.empty()) {
        (void)queue.cancel(live[rng.index(live.size())]);
      } else {
        // Zero-delay self-reschedule: two pops for one schedule call.
        auto* q = &queue;
        live.push_back(queue.schedule_after(
            gc::SimTime(static_cast<std::int64_t>(rng.uniform(5'000'000))),
            [q, &record] { (void)q->schedule_after(gc::SimTime{}, record); }));
      }
    }
    (void)queue.run_for(gc::SimTime::from_millis(4));
    live.clear();  // ids past their window are dead weight; forget them
  }
  (void)queue.run_for(gc::SimTime::from_seconds(200));  // drain the far tail
  return {executed, digest};
}

SchedulerResult run_scheduler(bool smoke) {
  SchedulerResult r;
  // Even smoke needs a timed region long enough (~100 ms) that host
  // scheduling noise can't swing the gated events/sec by 20%.
  const int batches = smoke ? 64 : 120;
  const int per_batch = 4000;
  const std::uint64_t seed = 0xde5;

  (void)drive_scheduler(seed, batches / 8 + 1, per_batch);  // warm-up
  std::uint64_t digest = 0;  // same seed: identical across reps
  const auto wall = genio::bench::time_calls(0, 5, 1, [&] {
    std::tie(r.events, digest) = drive_scheduler(seed, batches, per_batch);
  });
  r.heap_eps = static_cast<double>(r.events) / wall.min;  // best-of-5: see header
  r.digest_match = digest == (smoke ? kSmokeTraceDigest : kFullTraceDigest);
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

// Delivered digest and frame count of the identity fabric, recorded from a
// build where the calendar and heap backends agreed on them.
constexpr std::uint64_t kSmokeIdentityDigest = 0x9d401b5b7afde582ull;
constexpr std::uint64_t kSmokeIdentityFrames = 1298;
constexpr std::uint64_t kFullIdentityDigest = 0x91c33df3b27e3a3full;
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
  json.object("scheduler").field("events", sched.events).field("heap_eps", sched.heap_eps, 1)
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
  table.add_row({"scheduler/heap", std::to_string(sched.events) + " events",
                 gc::format_double(sched.heap_eps, 0),
                 sched.digest_match ? "trace digest pinned" : "TRACE DIVERGED"});
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

  std::printf("identity: %llu frames delivered, digest %s\n",
              static_cast<unsigned long long>(identity.delivered_frames),
              identity.digest_match && identity.frames_match ? "MATCH" : "DIVERGE");
  std::printf("sharded LPT model:");
  for (const auto& [workers, eps] : sharded.modeled_eps) {
    std::printf(" %dw=%.0f", workers, eps);
  }
  std::printf(" events/sec\n\n");

  genio::bench::Gate gate({genio::bench::kInvariants});
  gate.check(sched.digest_match, "scheduler trace digest == recorded digest");
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
    gate.check(carrier.carrier_eps >= 100'000.0, "carrier drain >= 100k events/sec");
    gate.check(carrier.bytes_per_onu <= 2'048.0, "modeled footprint <= 2 KB/ONU");
    gate.check(carrier.arena_reuse >= 0.5, "arena reuse ratio >= 0.5 at steady state");
    if (!args.baseline.empty()) {
      // Both keys are read even when the first regresses.
      const auto baseline = genio::bench::Baseline::load(args.baseline);
      const bool heap_ok = genio::bench::within_baseline(
          baseline, "scheduler.heap_eps", sched.heap_eps, "heap_eps", "events/sec", 0);
      const bool carrier_ok =
          genio::bench::within_baseline(baseline, "carrier.carrier_eps", carrier.carrier_eps,
                                        "carrier_eps", "events/sec", 0);
      gate.check(heap_ok && carrier_ok, "events/sec within 20% of committed baseline");
    }
  }

  write_json(args, sched, carrier, identity, sharded, gate.ok());
  if (!gate.ok()) {
    std::fprintf(stderr, "\nBENCH FAILED: invariant violations above\n");
    return 1;
  }
  std::printf("all invariants hold\n");
  return 0;
}
