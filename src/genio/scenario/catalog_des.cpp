// Discrete-event / carrier-scale catalog: the PonFabric (many OLT sites on
// one EventQueue) exercised end to end — a feeder cut isolated to one site
// with frame-level accounting closed, a staggered 10k-ONU activation storm
// with fleet-wide serial-collision checks, a cross-OLT chaos storm whose
// fault edges are fabric queue events, with same-seed determinism, and DBA
// class protection (fixed/assured floors) under a best-effort flood with
// mid-run churn. Fabric scenarios advance sim time on the fabric's own
// queue; ctx.advance() still charges the watchdog budget.
#include <cstdint>
#include <string>
#include <vector>

#include "genio/resilience/chaos.hpp"
#include "genio/scenario/catalog.hpp"
#include "genio/scenario/scenario.hpp"
#include "genio/sim/fabric.hpp"

namespace genio::scenario {

namespace {

namespace gc = genio::common;
namespace gr = genio::resilience;

/// Charge `dt` against the scenario watchdog, then advance the fabric.
void advance_fabric(ScenarioContext& ctx, sim::PonFabric& fabric, gc::SimTime dt) {
  ctx.advance(dt);
  fabric.run_for(dt);
}

std::uint64_t site_upstream_frames(sim::PonFabric& fabric, int site) {
  return fabric.odn(site).stats().upstream_frames;
}

std::uint64_t total_data_frames_sent(sim::PonFabric& fabric) {
  std::uint64_t sent = 0;
  for (int s = 0; s < fabric.site_count(); ++s) {
    for (int i = 0; i < fabric.onus_per_site(); ++i) {
      sent += fabric.onu(s, i).stats().data_frames_sent;
    }
  }
  return sent;
}

std::uint64_t total_odn_drops(sim::PonFabric& fabric) {
  std::uint64_t dropped = 0;
  for (int s = 0; s < fabric.site_count(); ++s) {
    dropped += fabric.odn(s).stats().dropped_frames;
  }
  return dropped;
}

}  // namespace

// A feeder-fiber cut on one site must stall exactly that site: the other
// sites keep delivering, the cut site's frames die in its ODN (counted, not
// silently lost), and after the repair the frame-level accounting closes:
// every data frame an ONU ever sent was either delivered to its OLT or
// died in a feeder outage.
GENIO_SCENARIO("des.multi-olt.feeder-cut", "des", "fabric", "fault:pon-link-flap",
               "threat:T1") {
  sim::FabricConfig config;
  config.olt_count = 4;
  config.onus_per_olt = 16;
  config.seed = ctx.seed();
  sim::PonFabric fabric(config);

  ctx.check("fleet-activated", fabric.activate_all() == 4 * 16);
  fabric.start_traffic();
  advance_fabric(ctx, fabric, gc::SimTime::from_millis(200));

  const std::uint64_t cut_before = site_upstream_frames(fabric, 1);
  const std::uint64_t peer_before = site_upstream_frames(fabric, 0);
  fabric.set_feeder(1, false);
  advance_fabric(ctx, fabric, gc::SimTime::from_millis(200));
  ctx.check("cut-site-stalled", site_upstream_frames(fabric, 1) == cut_before,
            "no upstream frame crossed the dark feeder");
  ctx.check("peer-sites-unaffected", site_upstream_frames(fabric, 0) > peer_before);
  ctx.check("losses-counted", fabric.odn(1).stats().dropped_frames > 0);

  fabric.set_feeder(1, true);
  advance_fabric(ctx, fabric, gc::SimTime::from_millis(200));
  ctx.check("cut-site-recovered", site_upstream_frames(fabric, 1) > cut_before);

  fabric.stop_traffic();
  advance_fabric(ctx, fabric, gc::SimTime::from_millis(400));  // drain queues

  const std::uint64_t sent = total_data_frames_sent(fabric);
  const std::uint64_t accounted =
      fabric.stats().delivered_frames + total_odn_drops(fabric);
  ctx.check("frame-accounting-closes", sent == accounted,
            std::to_string(sent) + " sent = " +
                std::to_string(fabric.stats().delivered_frames) + " delivered + " +
                std::to_string(total_odn_drops(fabric)) + " dropped");
  ctx.note("delivered " + std::to_string(fabric.stats().delivered_bytes) +
           " bytes across " + std::to_string(fabric.site_count()) + " sites");
}

// 100 OLTs x 100 ONUs activate in staggered discovery windows (one site per
// millisecond — the storm is an event schedule, not a loop). All 10k reach
// operational, the fleet serial space holds exactly 10k unique serials, and
// a cloned serial is caught at claim time on both layers (SerialSpace and
// the owning OLT's allowlist).
GENIO_SCENARIO("des.activation-storm.10k-onu", "des", "fabric", "scale") {
  sim::FabricConfig config;
  config.olt_count = 100;
  config.onus_per_olt = 100;
  config.seed = ctx.seed();
  sim::PonFabric fabric(config);

  for (int site = 0; site < fabric.site_count(); ++site) {
    fabric.schedule_discovery(gc::SimTime::from_millis(site + 1), site);
  }
  advance_fabric(ctx, fabric, gc::SimTime::from_millis(120));

  ctx.check("all-10k-operational", fabric.operational_count() == 10000,
            std::to_string(fabric.operational_count()) + " operational");
  ctx.check("serial-space-complete", fabric.serials().size() == 10000);
  ctx.check("no-collisions-in-clean-fleet", fabric.serials().collisions() == 0);

  // A cloned device claims an existing serial from another site.
  const std::string cloned = pon::make_onu_serial(7, 3);
  ctx.check("clone-rejected-fleet-wide",
            !fabric.serials().claim(cloned, "olt-rogue").ok());
  ctx.check("collision-counted", fabric.serials().collisions() == 1);
  ctx.check("clone-rejected-at-olt",
            !fabric.olt(7).register_serial(cloned).ok());
  ctx.note("fleet of " + std::to_string(fabric.serials().size()) +
           " serials, ordinal capacity " + std::to_string(pon::kMaxOltOrdinal));
}

// A chaos storm spread across multiple OLT feeders, driven through the
// fabric's event queue: fault edges interleave with traffic and DBA
// events in timestamp order. Faults must actually fire and revert, the
// fabric must keep delivering, and the whole run — storm included — must
// be bit-reproducible: a second fabric and engine built from the same
// seed produce the identical delivery digest.
GENIO_SCENARIO("des.cross-olt.chaos-storm", "des", "fabric", "chaos",
               "fault:pon-link-flap") {
  const auto run_storm = [&](sim::PonFabric& fabric) {
    gr::ChaosEngine chaos(&fabric.events(), nullptr, gc::Rng(ctx.seed()));
    for (int site = 0; site < fabric.site_count(); ++site) {
      const int s = site;
      chaos.register_target(
          gr::FaultKind::kPonLinkFlap, "olt-" + std::to_string(site),
          {.apply = [&fabric, s](const gr::FaultSpec&) { fabric.set_feeder(s, false); },
           .revert = [&fabric, s](const gr::FaultSpec&) { fabric.set_feeder(s, true); }});
    }

    (void)fabric.activate_all();
    fabric.start_traffic();
    for (int site = 0; site < fabric.site_count(); ++site) {
      (void)chaos.schedule_storm(gr::FaultKind::kPonLinkFlap,
                                 "olt-" + std::to_string(site), 3,
                                 gc::SimTime::from_millis(400),
                                 gc::SimTime::from_millis(40), ctx.seed());
    }
    advance_fabric(ctx, fabric, gc::SimTime::from_millis(600));
    // Exponential durations have a long tail: keep draining the queue in
    // fixed steps until every injected fault has reverted (both fabrics
    // take the identical step sequence, so the digests stay comparable).
    for (int step = 0; step < 64 && chaos.stats().reverted < chaos.stats().injected;
         ++step) {
      advance_fabric(ctx, fabric, gc::SimTime::from_millis(100));
    }
    return chaos.stats();
  };

  sim::FabricConfig config;
  config.olt_count = 4;
  config.onus_per_olt = 8;
  config.seed = ctx.seed();
  sim::PonFabric fabric(config);
  const auto stats = run_storm(fabric);

  ctx.check("storm-actually-fired", stats.injected >= 12,
            std::to_string(stats.injected) + " injections");
  ctx.check("storm-fully-reverted", stats.reverted == stats.injected);
  ctx.check("fabric-kept-delivering", fabric.stats().delivered_frames > 0);

  sim::PonFabric twin(config);
  const auto twin_stats = run_storm(twin);
  ctx.check("same-seed-same-storm", twin_stats.injected == stats.injected &&
                                        twin_stats.reverted == stats.reverted);
  ctx.check("same-seed-same-delivery-digest",
            twin.delivered_digest() == fabric.delivered_digest() &&
                twin.stats().delivered_frames == fabric.stats().delivered_frames);
}

// Resource-abuse face of the DBA (T8): best-effort subscribers flood a
// deliberately undersized cycle budget while best-effort neighbours churn
// on and off the tree. The fixed and assured T-CONT classes must keep
// their delivery floors — class protection, not fair-share collapse — and
// the flood must be visibly shed at the queue caps, not silently absorbed.
GENIO_SCENARIO("des.dba.starvation-under-churn", "des", "fabric", "dba",
               "threat:T8") {
  sim::FabricConfig config;
  config.olt_count = 1;
  config.onus_per_olt = 16;
  config.seed = ctx.seed();
  config.cycle_budget_bytes = 12 * 1024;      // undersized on purpose: fixed +
  config.arrivals_per_onu_per_sec = 20000.0;  // assured entitlements consume it,
  config.payload_max = 2048;                  // best-effort gets the crumbs
  config.onu_queue_cap = 64;
  sim::PonFabric fabric(config);

  ctx.check("site-activated", fabric.activate_all() == 16);
  fabric.start_traffic();

  // Churn: best-effort ONUs 12..15 drop off the tree mid-run, reattach later.
  for (int i = 12; i < 16; ++i) {
    const int idx = i;
    sim::PonFabric* fab = &fabric;
    (void)fabric.events().schedule_at(gc::SimTime::from_millis(100 + 5 * i),
                                      [fab, idx] { fab->detach_onu(0, idx); });
    (void)fabric.events().schedule_at(gc::SimTime::from_millis(250 + 5 * i),
                                      [fab, idx] { fab->attach_onu(0, idx); });
  }
  advance_fabric(ctx, fabric, gc::SimTime::from_millis(400));

  // ONU index % 8: 0 -> fixed, 1..2 -> assured, rest best-effort.
  const std::uint64_t fixed_floor =
      fabric.delivered_bytes(0, fabric.onu(0, 0).onu_id()) +
      fabric.delivered_bytes(0, fabric.onu(0, 8).onu_id());
  std::uint64_t assured_floor = 0;
  for (const int i : {1, 2, 9, 10}) {
    assured_floor += fabric.delivered_bytes(0, fabric.onu(0, i).onu_id());
  }
  ctx.check("fixed-class-served", fixed_floor > 0,
            std::to_string(fixed_floor) + " bytes on fixed T-CONTs");
  ctx.check("assured-class-served", assured_floor > 0,
            std::to_string(assured_floor) + " bytes on assured T-CONTs");
  ctx.check("flood-shed-at-queue-caps", fabric.stats().queue_drops > 0,
            std::to_string(fabric.stats().queue_drops) + " arrivals shed");
  const auto& dba = fabric.dba(0).stats();
  ctx.check("demand-exceeded-grants", dba.bytes_requested > dba.bytes_granted,
            "grant ratio " + std::to_string(dba.grant_ratio()));
  ctx.check("churned-onus-reattached",
            fabric.odn(0).attached(&fabric.onu(0, 12)) &&
                fabric.odn(0).attached(&fabric.onu(0, 15)));
}

void anchor_catalog_des() {}

}  // namespace genio::scenario
