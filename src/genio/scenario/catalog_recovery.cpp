// Recovery catalog: MAPE-K playbook drills for every remediable fault,
// feed re-ingest with targeted vs full cache invalidation, breaker/outage
// deploys (retry-through, fail-closed, failover, and the audited legacy
// fail-open hazard), and supervisor convergence under mixed storms.
#include <string>
#include <utility>
#include <vector>

#include "genio/common/strings.hpp"
#include "genio/core/self_healing.hpp"
#include "genio/middleware/sdn.hpp"
#include "genio/scenario/catalog.hpp"
#include "genio/scenario/fragments.hpp"
#include "genio/scenario/scenario.hpp"

namespace genio::scenario {

namespace {

namespace gc = genio::common;
namespace gm = genio::middleware;
namespace gr = genio::resilience;

const gc::SimTime kTick = gc::SimTime::from_seconds(30);

std::string drill_target(core::GenioPlatform& platform, gr::FaultKind kind) {
  switch (kind) {
    case gr::FaultKind::kNodeCrash: return "olt-node-1";
    case gr::FaultKind::kSdnOutage: return "onos";
    case gr::FaultKind::kOnuChurn: return platform.onus()[0]->serial();
    case gr::FaultKind::kRegistryOutage: return "registry";
    case gr::FaultKind::kFeedOutage: return "cve-feed";
    case gr::FaultKind::kTpmTransient: return "tpm";
    default: return "odn";
  }
}

struct DrillResult {
  WorkloadStats stats;
  std::size_t replay_failed_open = 0;
  std::size_t replay_skipped_gates = 0;
  std::size_t replayed = 0;
};

// Drive deploy traffic with the supervisor in the loop, parking
// pull-blocked requests for the registry playbook, then drain.
DrillResult drive_supervised(ScenarioContext& ctx, core::DeploymentPipeline& pipeline,
                             core::SelfHealingSupervisor& shs, const TenantFleet& fleet,
                             int storm_ticks, int drain_ticks) {
  DrillResult result;
  for (int tick = 0; tick < storm_ticks; ++tick) {
    ctx.advance(kTick);
    if (tick % 3 == 0) {
      ++result.stats.deployments;
      // A finite deadline keeps the pull gate from retry-sleeping through
      // an entire registry outage: the failure surfaces as a parked
      // deployment the registry playbook must replay.
      const core::DeploymentRequest request{
          .tenant = fleet.names[0],
          .image_reference = fleet.image_refs[0],
          .app_name = "app-" + std::to_string(tick),
          .limits = gm::ResourceQuantity{0.1, 64},
          .deadline_budget = gc::SimTime::from_seconds(60)};
      const auto report = pipeline.deploy(request);
      ctx.record(report);
      result.stats.failed_open += report.failed_open_count();
      if (report.deployed) {
        ++result.stats.deployed;
        result.stats.pod_refs.push_back(report.pod_ref);
      } else if (report.blocked_by() == "pull") {
        shs.enqueue_deployment(request);
      }
    }
    shs.tick();
  }
  for (int tick = 0; tick < drain_ticks; ++tick) {
    ctx.advance(kTick);
    shs.tick();
  }
  for (const auto& replay : shs.remediation_reports()) {
    ctx.record(replay);
    result.replay_failed_open += replay.failed_open_count();
    if (!replay.skipped_gates().empty()) ++result.replay_skipped_gates;
  }
  result.replayed = shs.remediation_reports().size();
  return result;
}

void run_playbook_drill(ScenarioContext& ctx, gr::FaultKind kind, int episodes) {
  auto& platform = ctx.make_platform(scenario_config());
  (void)platform.boot_host();
  (void)platform.activate_pon();
  const TenantFleet fleet = setup_tenants(platform, 1);
  core::DeploymentPipeline pipeline(&platform);
  core::SelfHealingSupervisor shs(&platform, &pipeline);

  const std::string target = drill_target(platform, kind);
  for (int e = 0; e < episodes; ++e) {
    gr::FaultSpec spec;
    spec.kind = kind;
    spec.target = target;
    spec.at = gc::SimTime::from_seconds(300 + 900 * e);
    spec.duration = gc::SimTime::from_seconds(120);
    if (kind == gr::FaultKind::kTpmTransient) spec.magnitude = 2.0;
    (void)platform.chaos().schedule(spec);
  }

  const DrillResult drill =
      drive_supervised(ctx, pipeline, shs, fleet, 20 + 30 * episodes, 20);

  ctx.check("supervisor-converges", shs.steady_state());
  ctx.check("no-open-episodes", shs.ledger().open_count() == 0);
  ctx.check("episode-resolved", shs.ledger().resolved_count() >= 1,
            std::to_string(shs.ledger().resolved_count()) + " resolved");
  ctx.check("no-gate-failed-open",
            drill.stats.failed_open + drill.replay_failed_open == 0);
  ctx.check("replays-skip-no-gates", drill.replay_skipped_gates == 0,
            std::to_string(drill.replayed) + " replays");
  ctx.check("no-workload-vanished",
            vanished_pods(platform, drill.stats.pod_refs) == 0);
  ctx.note("mttr: " + gc::format_double(shs.ledger().mean_time_to_repair_seconds(), 1) +
           "s over " + std::to_string(shs.ledger().episodes().size()) + " episodes");
}

GENIO_SCENARIO_FAMILY(playbook_drills) {
  const std::pair<const char*, gr::FaultKind> drills[] = {
      {"node-crash", gr::FaultKind::kNodeCrash},
      {"sdn-outage", gr::FaultKind::kSdnOutage},
      {"onu-churn", gr::FaultKind::kOnuChurn},
      {"registry-outage", gr::FaultKind::kRegistryOutage},
      {"feed-outage", gr::FaultKind::kFeedOutage},
      {"tpm-transient", gr::FaultKind::kTpmTransient},
  };
  for (const auto& [slug, kind] : drills) {
    for (const int episodes : {1, 2}) {
      ScenarioDef def;
      def.name = std::string("heal.") + slug + (episodes == 1 ? ".single" : ".double");
      def.tags = {"heal", "fault:" + gr::to_string(kind)};
      if (kind == gr::FaultKind::kNodeCrash && episodes == 1) {
        def.tags.push_back("smoke");
      }
      def.fn = [kind = kind, episodes](ScenarioContext& ctx) {
        run_playbook_drill(ctx, kind, episodes);
      };
      registry.add(std::move(def));
    }
  }
}

// ------------------------------------------------ feed re-ingest and cache

void run_reingest(ScenarioContext& ctx, bool incremental, bool affected) {
  core::PlatformConfig config = scenario_config();
  config.incremental_invalidation = incremental;
  auto& platform = ctx.make_platform(config);
  const TenantFleet fleet = setup_tenants(platform, 1);
  core::DeploymentPipeline pipeline(&platform);

  // Warm the cache: deploy, then re-scan the identical content.
  const core::DeploymentRequest request{.tenant = fleet.names[0],
                                        .image_reference = fleet.image_refs[0],
                                        .app_name = "app-0"};
  ctx.record(pipeline.deploy(request));
  ctx.advance(gc::SimTime::from_seconds(30));
  const auto warm = pipeline.rescan(request);
  ctx.record(warm);
  ctx.check("warm-before-reingest", pipeline.scan_cache().stats().hits > 0);

  // Re-ingest one advisory. "flask" is in the deployed manifest;
  // "left-pad" is not — the targeted-invalidation contrast.
  const auto before = pipeline.scan_cache().stats();
  vuln::CveRecord record;
  record.id = "CVE-2024-90100";
  record.package = affected ? "flask" : "left-pad";
  record.affected = gc::VersionRange::parse(">=1.0.0 <9.0.0").value();
  record.fixed_version = gc::Version(9, 0, 0);
  record.cvss = vuln::CvssV3::parse("AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:N").value();
  record.published = platform.clock().now();
  platform.cve_db().upsert(std::move(record));

  ctx.advance(gc::SimTime::from_seconds(30));
  const auto rescan = pipeline.rescan(request);
  ctx.record(rescan);
  const auto after = pipeline.scan_cache().stats();

  ctx.check("rescan-clean", rescan.blocked_by().empty(),
            "blocked by '" + rescan.blocked_by() + "'");
  if (incremental && !affected) {
    // Unrelated advisory: entries are re-keyed in place and the re-scan
    // stays warm — no cold stampede.
    ctx.check("unaffected-entries-rekeyed", after.revision_rekeys > before.revision_rekeys);
    ctx.check("rescan-stays-warm", after.hits > before.hits);
    ctx.check("no-full-dump", after.invalidations_full == before.invalidations_full);
  } else if (incremental && affected) {
    // Touched manifest: exactly the affected verdict goes cold again.
    ctx.check("affected-entry-invalidated",
              after.invalidations_targeted > before.invalidations_targeted);
    ctx.check("rescan-goes-cold", after.misses > before.misses);
  } else {
    // Full-dump mode drops every stale-revision entry either way.
    ctx.check("full-dump-invalidates", after.invalidations_full > before.invalidations_full);
    ctx.check("rescan-goes-cold", after.misses > before.misses);
  }
  ctx.note("hits " + std::to_string(after.hits) + ", misses " +
           std::to_string(after.misses) + ", rekeys " +
           std::to_string(after.revision_rekeys));
}

GENIO_SCENARIO_FAMILY(feed_reingest) {
  for (const bool incremental : {true, false}) {
    for (const bool affected : {false, true}) {
      ScenarioDef def;
      def.name = std::string("heal.reingest.") +
                 (incremental ? "incremental." : "full-dump.") +
                 (affected ? "affected" : "unrelated");
      def.tags = {"heal", "reingest", "fault:feed-outage"};
      def.fn = [incremental, affected](ScenarioContext& ctx) {
        run_reingest(ctx, incremental, affected);
      };
      registry.add(std::move(def));
    }
  }
}

// ---------------------------------------------- breaker / outage deploys

GENIO_SCENARIO("deploy.registry-blip.retries-through", "heal",
               "fault:registry-outage", "smoke") {
  auto& platform = ctx.make_platform(scenario_config());
  const TenantFleet fleet = setup_tenants(platform, 1);
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kRegistryOutage;
  spec.target = "registry";
  spec.at = gc::SimTime::from_seconds(60);
  spec.duration = gc::SimTime::from_seconds(5);
  (void)platform.chaos().schedule(spec);
  ctx.advance(gc::SimTime::from_seconds(62));  // mid-blip

  core::DeploymentPipeline pipeline(&platform);
  const auto report = pipeline.deploy({.tenant = fleet.names[0],
                                       .image_reference = fleet.image_refs[0],
                                       .app_name = "app-0"});
  ctx.record(report);
  ctx.check("pull-retries-through-blip", report.deployed,
            "blocked by '" + report.blocked_by() + "'");
  ctx.check("no-gate-failed-open", report.failed_open_count() == 0);
}

GENIO_SCENARIO("deploy.registry-outage.fail-closed", "heal",
               "fault:registry-outage") {
  auto& platform = ctx.make_platform(scenario_config());
  const TenantFleet fleet = setup_tenants(platform, 1);
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kRegistryOutage;
  spec.target = "registry";
  spec.at = gc::SimTime::from_seconds(60);
  spec.duration = gc::SimTime::from_seconds(600);
  (void)platform.chaos().schedule(spec);
  ctx.advance(gc::SimTime::from_seconds(90));

  core::DeploymentPipeline pipeline(&platform);
  const auto report =
      pipeline.deploy({.tenant = fleet.names[0],
                       .image_reference = fleet.image_refs[0],
                       .app_name = "app-0",
                       .deadline_budget = gc::SimTime::from_seconds(60)});
  ctx.record(report);
  ctx.check("outage-blocks-fail-closed", report.blocked_by() == "pull",
            "blocked by '" + report.blocked_by() + "'");
  ctx.check("no-gate-failed-open", report.failed_open_count() == 0);
}

GENIO_SCENARIO("deploy.feed-outage.legacy-fail-open", "heal",
               "fault:feed-outage") {
  // The hazard the resilient posture closes: with policies off, the SCA
  // gate swallows a feed outage and waves the image through unscanned.
  // Checked (the contrast must exist), deliberately NOT record()ed — this
  // documents the legacy hazard rather than auditing the hardened surface.
  core::PlatformConfig config = scenario_config();
  config.resilience_policies = false;
  auto& platform = ctx.make_platform(config);
  const TenantFleet fleet = setup_tenants(platform, 1);
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kFeedOutage;
  spec.target = "cve-feed";
  spec.at = gc::SimTime::from_seconds(60);
  spec.duration = gc::SimTime::from_seconds(600);
  (void)platform.chaos().schedule(spec);
  ctx.advance(gc::SimTime::from_seconds(90));

  core::DeploymentPipeline pipeline(&platform);
  const auto report = pipeline.deploy({.tenant = fleet.names[0],
                                       .image_reference = fleet.image_refs[0],
                                       .app_name = "app-0"});
  ctx.check("legacy-arm-fails-open", report.failed_open_count() > 0);
  const auto* sca = report.stage("sca");
  ctx.check("sca-waved-through-unscanned", sca != nullptr && sca->failed_open,
            sca != nullptr ? sca->detail : "no sca stage");
}

GENIO_SCENARIO("deploy.sdn-outage.failover", "heal", "fault:sdn-outage") {
  auto& platform = ctx.make_platform(scenario_config());
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kSdnOutage;
  spec.target = "onos";
  spec.at = gc::SimTime::from_seconds(60);
  spec.duration = gc::SimTime::from_seconds(120);
  (void)platform.chaos().schedule(spec);
  ctx.advance(gc::SimTime::from_seconds(90));

  bool all_ok = true;
  for (int i = 0; i < 4; ++i) {
    all_ok &= platform.onos_failover()
                  .api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                            gm::SdnCapability::kLogicalConfig)
                  .ok();
    ctx.advance(gc::SimTime::from_seconds(10));
  }
  ctx.check("standby-serves-during-outage", all_ok);
  ctx.check("breaker-recorded-failover", platform.onos_failover().failovers() > 0,
            std::to_string(platform.onos_failover().failovers()) + " failovers");
}

GENIO_SCENARIO("deploy.sdn-outage.legacy-dark", "heal", "fault:sdn-outage") {
  core::PlatformConfig config = scenario_config();
  config.resilience_policies = false;
  auto& platform = ctx.make_platform(config);
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kSdnOutage;
  spec.target = "onos";
  spec.at = gc::SimTime::from_seconds(60);
  spec.duration = gc::SimTime::from_seconds(120);
  (void)platform.chaos().schedule(spec);
  ctx.advance(gc::SimTime::from_seconds(90));
  const auto status = platform.onos().api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                                               gm::SdnCapability::kLogicalConfig);
  ctx.check("legacy-caller-goes-dark", !status.ok());
  ctx.advance(gc::SimTime::from_seconds(120));
  const auto healed = platform.onos().api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                                               gm::SdnCapability::kLogicalConfig);
  ctx.check("primary-heals-on-revert", healed.ok());
}

// ------------------------------------------------ focused healing stories

GENIO_SCENARIO("heal.sdn-failback.primary-restored", "heal", "fault:sdn-outage") {
  auto& platform = ctx.make_platform(scenario_config());
  (void)platform.boot_host();
  (void)platform.activate_pon();
  const TenantFleet fleet = setup_tenants(platform, 1);
  core::DeploymentPipeline pipeline(&platform);
  core::SelfHealingSupervisor shs(&platform, &pipeline);
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kSdnOutage;
  spec.target = "onos";
  spec.at = gc::SimTime::from_seconds(120);
  spec.duration = gc::SimTime::from_seconds(180);
  (void)platform.chaos().schedule(spec);

  for (int tick = 0; tick < 30; ++tick) {
    ctx.advance(kTick);
    (void)platform.onos_failover().api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                                            gm::SdnCapability::kLogicalConfig);
    shs.tick();
  }
  ctx.check("primary-available-again", platform.onos().available());
  ctx.check("supervisor-converges", shs.steady_state());
  const auto status = platform.onos().api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                                               gm::SdnCapability::kLogicalConfig);
  ctx.check("primary-serves-after-failback", status.ok());
}

GENIO_SCENARIO("heal.registry-replay.full-pipeline", "heal",
               "fault:registry-outage") {
  auto& platform = ctx.make_platform(scenario_config());
  (void)platform.boot_host();
  (void)platform.activate_pon();
  const TenantFleet fleet = setup_tenants(platform, 1);
  core::DeploymentPipeline pipeline(&platform);
  core::SelfHealingSupervisor shs(&platform, &pipeline);
  gr::FaultSpec spec;
  spec.kind = gr::FaultKind::kRegistryOutage;
  spec.target = "registry";
  spec.at = gc::SimTime::from_seconds(60);
  spec.duration = gc::SimTime::from_seconds(900);
  (void)platform.chaos().schedule(spec);
  ctx.advance(gc::SimTime::from_seconds(90));

  // Three deployments land during the outage and outlast the pull retry
  // budget: all must be parked, then replayed through EVERY gate on heal.
  int parked = 0;
  for (int i = 0; i < 3; ++i) {
    const core::DeploymentRequest request{
        .tenant = fleet.names[0],
        .image_reference = fleet.image_refs[0],
        .app_name = "app-" + std::to_string(i),
        .deadline_budget = gc::SimTime::from_seconds(30)};
    const auto report = pipeline.deploy(request);
    ctx.record(report);
    if (report.blocked_by() == "pull") {
      shs.enqueue_deployment(request);
      ++parked;
    }
    ctx.advance(gc::SimTime::from_seconds(30));
  }
  ctx.check("outage-parked-deployments", parked == 3,
            std::to_string(parked) + " parked");

  for (int tick = 0; tick < 40; ++tick) {
    ctx.advance(kTick);
    shs.tick();
  }
  std::size_t skipped = 0;
  std::size_t failed_open = 0;
  for (const auto& replay : shs.remediation_reports()) {
    ctx.record(replay);
    failed_open += replay.failed_open_count();
    if (!replay.skipped_gates().empty()) ++skipped;
  }
  ctx.check("all-parked-replayed",
            shs.remediation_reports().size() >= static_cast<std::size_t>(parked) &&
                shs.queued_deployments() == 0,
            std::to_string(shs.remediation_reports().size()) + " replays");
  ctx.check("replays-run-every-gate", skipped == 0 && failed_open == 0);
  ctx.check("supervisor-converges", shs.steady_state());
}

// ------------------------------------------- supervisor under mixed storms

GENIO_SCENARIO_FAMILY(supervisor_storms) {
  for (const int faults : {8, 16}) {
    ScenarioDef def;
    def.name = "heal.storm.supervisor.f" + std::to_string(faults);
    def.tags = {"heal", "chaos"};
    def.fn = [faults](ScenarioContext& ctx) {
      auto& platform = ctx.make_platform(scenario_config());
      (void)platform.boot_host();
      (void)platform.activate_pon();
      const TenantFleet fleet = setup_tenants(platform, 1);
      core::DeploymentPipeline pipeline(&platform);
      core::SelfHealingSupervisor shs(&platform, &pipeline);
      (void)platform.chaos().schedule_random(faults, gc::SimTime::from_seconds(1200),
                                             gc::SimTime::from_seconds(60));
      const DrillResult drill = drive_supervised(ctx, pipeline, shs, fleet, 50, 20);
      ctx.check("supervisor-converges", shs.steady_state());
      ctx.check("no-open-episodes", shs.ledger().open_count() == 0);
      ctx.check("no-gate-failed-open",
                drill.stats.failed_open + drill.replay_failed_open == 0);
      ctx.check("no-workload-vanished",
                vanished_pods(platform, drill.stats.pod_refs) == 0);
      ctx.note("episodes: " + std::to_string(shs.ledger().episodes().size()) +
               ", replays: " + std::to_string(drill.replayed));
    };
    registry.add(std::move(def));
  }
}

}  // namespace

void anchor_catalog_recovery() {}

}  // namespace genio::scenario
