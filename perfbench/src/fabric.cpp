// Workload `fabric`: a sim::PonFabric of 100 OLT x 100 ONU on one thread.
// Set-up is the build plus a staggered activation storm (one site's
// discovery window every 100 us). Poisson traffic then runs in 1 ms
// simulated slices until the measured window is over. There is no data
// path crypto here, and no keygen.
//
// Exact counts (DBA cycles, delivered frames, queue drops, the delivered
// digest) are taken at a fixed simulated checkpoint, so they repeat for a
// seed no matter how fast the host is. After the measured phase, two small
// fabrics built from the same seed must deliver the same digest.
#include <memory>

#include "bench.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/pon/onu.hpp"
#include "genio/sim/fabric.hpp"

namespace perfbench {
namespace {

namespace gc = genio::common;
namespace gs = genio::sim;

std::uint64_t queued_bytes(gs::PonFabric& fabric) {
  std::uint64_t total = 0;
  for (int s = 0; s < fabric.site_count(); ++s) {
    for (int i = 0; i < fabric.onus_per_site(); ++i) {
      total += fabric.onu(s, i).upstream_queue_bytes();
    }
  }
  return total;
}

// Delivered digest of a 10 x 10 fabric after activation and 10 ms of
// traffic.
std::uint64_t small_fabric_digest(std::uint64_t seed) {
  gs::FabricConfig config;
  config.olt_count = 10;
  config.onus_per_olt = 10;
  config.seed = seed;
  gs::PonFabric fabric(config);
  for (int site = 0; site < fabric.site_count(); ++site) {
    fabric.schedule_discovery(gc::SimTime::from_micros(100 * (site + 1)), site);
  }
  (void)fabric.run_for(gc::SimTime::from_millis(20));
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(10));
  return fabric.delivered_digest();
}

}  // namespace

WorkloadResult run_fabric(const Options& options, Tracer* tracer) {
  WorkloadResult r;
  gs::FabricConfig config;
  // Full size in every run, tiny ones included, so that the layer figures
  // of a traced run describe the real fabric; a tiny run only skips the
  // repeated set-ups and stops at the checkpoint.
  config.olt_count = 100;
  config.onus_per_olt = 100;
  config.seed = options.seed;
  const int onus = config.olt_count * config.onus_per_olt;
  const auto slice = gc::SimTime::from_millis(1);
  const int checkpoint_slices = 40;

  std::unique_ptr<gs::PonFabric> fabric;
  std::vector<double> build_s, activation_s;
  for (int rep = 0; rep < (options.tiny ? 1 : 3); ++rep) {
    fabric.reset();
    ScopedSpan setup(tracer, "sim.setup", "sim", 0);
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "sim.build", "sim", 0, setup.id());
      fabric = std::make_unique<gs::PonFabric>(config);
    }
    build_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    {
      ScopedSpan span(tracer, "sim.activation", "sim", 0, setup.id());
      for (int site = 0; site < fabric->site_count(); ++site) {
        fabric->schedule_discovery(gc::SimTime::from_micros(100 * (site + 1)), site);
      }
      (void)fabric->run_for(gc::SimTime::from_millis(20));
    }
    activation_s.push_back(seconds_since(t1));
    r.setup_s.push_back(seconds_since(t0));
  }
  r.check(fabric->operational_count() == onus,
          "only " + std::to_string(fabric->operational_count()) + " of " +
              std::to_string(onus) + " ONUs operational");

  fabric->start_traffic();
  const std::uint64_t executed_before = fabric->events().stats().executed;
  r.windows.resize(kWindows);
  const double window_s = options.seconds / kWindows;
  const auto start = Clock::now();
  int slices = 0;
  while (slices < checkpoint_slices || seconds_since(start) < options.seconds) {
    ScopedSpan span(tracer, "sim.slice", "sim", static_cast<std::uint64_t>(slices + 1));
    const auto t0 = Clock::now();
    const auto index = static_cast<std::size_t>(seconds_since(start) / window_s);
    Window& window = r.windows[std::min<std::size_t>(index, kWindows - 1)];
    (void)fabric->run_for(slice);
    const double ms = ms_since(t0);
    window.items += 1;  // one simulated millisecond
    window.seconds += ms / 1e3;
    window.latency_ms.push_back(ms);
    ++slices;
    if (slices == checkpoint_slices) {
      const gs::FabricStats& stats = fabric->stats();
      r.layer.push_back({"pon.dba_cycles", static_cast<double>(stats.dba_cycles), "count"});
      r.layer.push_back(
          {"pon.delivered_frames", static_cast<double>(stats.delivered_frames), "count"});
      r.detail.emplace_back("checkpoint_queue_drops", static_cast<double>(stats.queue_drops));
      r.detail.emplace_back("checkpoint_digest_low32",
                            static_cast<double>(fabric->delivered_digest() & 0xffffffffu));
      r.check(stats.generated_bytes == stats.delivered_bytes + queued_bytes(*fabric),
              "bytes not conserved at checkpoint");
    }
  }
  const double work_seconds = seconds_since(start);
  const gs::FabricStats& stats = fabric->stats();
  r.check(stats.generated_bytes == stats.delivered_bytes + queued_bytes(*fabric),
          "generated bytes != delivered + queued bytes");
  r.check(stats.delivered_frames > 0, "no frames delivered");
  r.check(small_fabric_digest(options.seed) == small_fabric_digest(options.seed),
          "delivered digest differs between two fabrics of one seed");

  const auto& qstats = fabric->events().stats();
  const double executed = static_cast<double>(qstats.executed - executed_before);
  double reuse = 0.0;
  double high_water = 0.0;
  for (int s = 0; s < fabric->site_count(); ++s) {
    reuse += fabric->arena(s).stats().reuse_ratio();
    high_water += static_cast<double>(fabric->arena(s).stats().high_water_bytes);
  }
  const double sites = static_cast<double>(fabric->site_count());
  r.layer.push_back({"common.event_queue.eps", executed / work_seconds, "1/s"});
  r.layer.push_back({"common.event_queue.events_per_sim_s",
                     executed / (static_cast<double>(slices) * 1e-3), "1/s"});
  r.layer.push_back(
      {"common.event_queue.max_pending", static_cast<double>(qstats.max_pending), "count"});
  r.layer.push_back({"pon.arena.reuse_ratio", reuse / sites, "ratio"});
  r.layer.push_back({"pon.arena.high_water_bytes", high_water / sites, "bytes"});
  r.layer.push_back({"sim.build_s", median(build_s), "s"});
  r.layer.push_back({"sim.activation_s", median(activation_s), "s"});
  r.layer.push_back({"sim.modeled_bytes_per_onu", fabric->modeled_bytes_per_onu(), "bytes"});

  r.detail.emplace_back("onus", onus);
  r.detail.emplace_back("simulated_ms", slices);
  r.detail.emplace_back("fabric_wall_per_sim_s", work_seconds / (slices * 1e-3));
  r.detail.emplace_back("events_cancelled", static_cast<double>(qstats.cancelled));
  r.detail.emplace_back("delivered_frames_total", static_cast<double>(stats.delivered_frames));
  return r;
}

}  // namespace perfbench
