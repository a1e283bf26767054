// Self-healing supervision loop: circuit-breaker half-open edges and bus
// events, health-monitor hysteresis/quarantine boundaries, supervisor
// episode lifecycle (open -> remediate -> verify -> resolve, escalation,
// wait-only targets), platform wiring, and the gate-bypass property sweep
// (remediation never bypasses pipeline security gates, 50 chaos seeds).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "genio/common/event_bus.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/posture.hpp"
#include "genio/core/self_healing.hpp"
#include "genio/resilience/circuit_breaker.hpp"
#include "genio/resilience/health_monitor.hpp"
#include "genio/resilience/supervisor.hpp"

namespace gc = genio::common;
namespace gr = genio::resilience;
namespace gm = genio::middleware;
namespace as = genio::appsec;
namespace core = genio::core;

namespace {

gc::SimTime at_s(double s) { return gc::SimTime::from_seconds(s); }

// ---------------------------------------------------------------------------
// Circuit breaker: half-open edge cases (satellite: test coverage).

TEST(CircuitBreakerHalfOpen, ProbeFailureReopensAndResetsBackoff) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker("sdn", &clock,
                             {.failure_threshold = 3,
                              .open_duration = at_s(30),
                              .half_open_probes = 1});
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), gr::BreakerState::kOpen);

  // Cooldown elapses; the next allow() half-opens and admits one probe.
  clock.advance(at_s(30));
  ASSERT_TRUE(breaker.allow());
  ASSERT_EQ(breaker.state(), gr::BreakerState::kHalfOpen);

  // The probe fails: straight back to open, and the cooldown restarts NOW
  // — not from the original opened_at.
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), gr::BreakerState::kOpen);
  clock.advance(at_s(29));
  EXPECT_FALSE(breaker.allow());  // 29s into the NEW 30s cooldown
  EXPECT_EQ(breaker.state(), gr::BreakerState::kOpen);
  clock.advance(at_s(1));
  EXPECT_TRUE(breaker.allow());  // full cooldown served: half-open again
  EXPECT_EQ(breaker.state(), gr::BreakerState::kHalfOpen);
}

TEST(CircuitBreakerHalfOpen, ProbeSuccessClosesAndResetsFailureCount) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker("sdn", &clock,
                             {.failure_threshold = 3,
                              .open_duration = at_s(30),
                              .half_open_probes = 1});
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(at_s(30));
  ASSERT_TRUE(breaker.allow());
  ASSERT_EQ(breaker.state(), gr::BreakerState::kHalfOpen);

  breaker.record_success();
  EXPECT_EQ(breaker.state(), gr::BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());

  // Closing cleared the failure streak: threshold-1 new failures do not
  // trip the breaker.
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), gr::BreakerState::kClosed);
}

TEST(CircuitBreakerHalfOpen, HalfOpenAdmitsOnlyConfiguredProbes) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker("sdn", &clock,
                             {.failure_threshold = 1,
                              .open_duration = at_s(10),
                              .half_open_probes = 1});
  breaker.record_failure();
  clock.advance(at_s(10));
  EXPECT_TRUE(breaker.allow());   // the single probe slot
  EXPECT_FALSE(breaker.allow());  // everyone else still rejected
  EXPECT_EQ(breaker.state(), gr::BreakerState::kHalfOpen);
}

// Satellite: every breaker state transition is published on the bus.
TEST(CircuitBreakerBus, PublishesEveryTransition) {
  gc::SimClock clock;
  gc::EventBus bus;
  std::vector<std::string> seen;  // "from->to"
  bus.subscribe("resilience.breaker.", [&seen](const gc::Event& e) {
    seen.push_back(e.attr("from", "?") + "->" + e.attr("to", "?"));
  });
  gr::CircuitBreaker breaker("sdn", &clock,
                             {.failure_threshold = 2,
                              .open_duration = at_s(30),
                              .half_open_probes = 1});
  breaker.attach_bus(&bus);

  breaker.record_failure();
  breaker.record_failure();      // closed -> open
  clock.advance(at_s(30));
  ASSERT_TRUE(breaker.allow());  // open -> half-open
  breaker.record_failure();      // half-open -> open
  clock.advance(at_s(30));
  ASSERT_TRUE(breaker.allow());  // open -> half-open
  breaker.record_success();      // half-open -> closed

  const std::vector<std::string> expected = {
      "closed->open", "open->half-open", "half-open->open", "open->half-open",
      "half-open->closed"};
  EXPECT_EQ(seen, expected);
}

// ---------------------------------------------------------------------------
// Health monitor: hysteresis and quarantine boundaries.

TEST(HealthMonitor, ExactlyNMinusOneFailuresDoesNotMarkDown) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = true;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 3, .up_after = 1});

  monitor.tick();
  ASSERT_EQ(monitor.state("svc"), gr::HealthState::kHealthy);

  serving = false;
  for (int i = 0; i < 2; ++i) {  // exactly down_after - 1 failures
    clock.advance(at_s(10));
    monitor.tick();
  }
  EXPECT_EQ(monitor.state("svc"), gr::HealthState::kHealthy)
      << "N-1 consecutive failures must not cross the hysteresis threshold";
  EXPECT_EQ(monitor.unhealthy_count(), 0u);

  clock.advance(at_s(10));
  monitor.tick();  // failure N
  EXPECT_EQ(monitor.state("svc"), gr::HealthState::kDown);
  EXPECT_EQ(monitor.unhealthy_count(), 1u);
}

TEST(HealthMonitor, OneHealthyProbeResetsTheFailureStreak) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  int calls = 0;
  // fail, fail, SERVE, fail, fail: never down_after=3 in a row.
  monitor.add_target("svc", [&calls] { return ++calls == 3; },
                     {.down_after = 3, .up_after = 1});
  for (int i = 0; i < 5; ++i) {
    clock.advance(at_s(10));
    monitor.tick();
  }
  EXPECT_NE(monitor.state("svc"), gr::HealthState::kDown);
}

TEST(HealthMonitor, FlapBelowThresholdIsNotQuarantined) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = false;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1,
                      .up_after = 1,
                      .flap_transitions = 4,
                      .flap_window = at_s(600),
                      .quarantine_duration = at_s(120)});
  // unknown -> down (not a flip), then exactly flap_transitions-1 flips.
  monitor.tick();
  ASSERT_EQ(monitor.state("svc"), gr::HealthState::kDown);
  for (int flip = 0; flip < 3; ++flip) {
    serving = !serving;
    clock.advance(at_s(10));
    monitor.tick();
  }
  EXPECT_NE(monitor.state("svc"), gr::HealthState::kQuarantined)
      << "flap_transitions-1 flips inside the window must not quarantine";
  EXPECT_EQ(monitor.status("svc")->quarantines, 0u);
}

TEST(HealthMonitor, FlappingTargetQuarantinesThenRecovers) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = false;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1,
                      .up_after = 1,
                      .flap_transitions = 4,
                      .flap_window = at_s(600),
                      .quarantine_duration = at_s(120)});
  monitor.tick();  // unknown -> down
  for (int flip = 0; flip < 4; ++flip) {
    serving = !serving;
    clock.advance(at_s(10));
    monitor.tick();
  }
  ASSERT_EQ(monitor.state("svc"), gr::HealthState::kQuarantined);
  EXPECT_EQ(monitor.status("svc")->quarantines, 1u);
  EXPECT_EQ(monitor.unhealthy_count(), 1u);

  // Probing is suspended during the cooldown even if the probe stabilizes.
  serving = true;
  const auto probes_at_quarantine = monitor.status("svc")->probes;
  clock.advance(at_s(60));
  monitor.tick();
  EXPECT_EQ(monitor.state("svc"), gr::HealthState::kQuarantined);
  EXPECT_EQ(monitor.status("svc")->probes, probes_at_quarantine);

  // Cooldown over: the target re-enters observation and recovers.
  clock.advance(at_s(60));
  monitor.tick();
  EXPECT_EQ(monitor.state("svc"), gr::HealthState::kHealthy);
  EXPECT_EQ(monitor.unhealthy_count(), 0u);
}

TEST(HealthMonitor, MarkSuspectOverridesProbeInterval) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = true;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1, .up_after = 1,
                      .probe_interval = at_s(300)});
  monitor.tick();
  ASSERT_EQ(monitor.state("svc"), gr::HealthState::kHealthy);

  // Inside the probe interval the monitor would normally not look.
  serving = false;
  clock.advance(at_s(30));
  monitor.tick();
  EXPECT_EQ(monitor.state("svc"), gr::HealthState::kHealthy);

  // A chaos event marks it suspect: the very next tick probes.
  monitor.mark_suspect("svc");
  clock.advance(at_s(1));
  monitor.tick();
  EXPECT_EQ(monitor.state("svc"), gr::HealthState::kDown);
}

// ---------------------------------------------------------------------------
// Supervisor: episode lifecycle against a fake target.

TEST(Supervisor, OpensRemediatesAndResolvesEpisode) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = true;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1, .up_after = 1});
  gr::Supervisor supervisor(&clock, &bus, &monitor);
  int remediations = 0;
  supervisor.set_playbook(
      "svc", {.name = "restart-svc",
              .remediate =
                  [&serving, &remediations]() -> gr::RemediationOutcome {
                    ++remediations;
                    serving = true;  // the fix works first time
                    return {.actions = {"restarted svc"}};
                  },
              .retry_gap = at_s(20)});

  supervisor.tick();
  ASSERT_TRUE(supervisor.steady_state());

  serving = false;
  clock.advance(at_s(30));
  supervisor.tick();  // detects, opens the episode, remediates
  ASSERT_EQ(supervisor.ledger().open_count(), 1u);
  ASSERT_EQ(remediations, 1);
  EXPECT_FALSE(supervisor.steady_state());

  clock.advance(at_s(30));
  supervisor.tick();  // verifies the fix and resolves
  EXPECT_EQ(supervisor.ledger().open_count(), 0u);
  EXPECT_EQ(supervisor.ledger().resolved_count(), 1u);
  EXPECT_TRUE(supervisor.steady_state());

  const auto& episode = supervisor.ledger().episodes().front();
  EXPECT_EQ(episode.outcome, gr::EpisodeOutcome::kResolved);
  EXPECT_EQ(episode.playbook, "restart-svc");
  EXPECT_EQ(episode.attempts, 1);
  EXPECT_FALSE(episode.escalated);
  EXPECT_DOUBLE_EQ(episode.time_to_repair().seconds(), 30.0);
  EXPECT_DOUBLE_EQ(supervisor.ledger().mean_time_to_repair_seconds(), 30.0);
}

TEST(Supervisor, EscalatesPastBudgetButKeepsRemediating) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = true;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1, .up_after = 1});
  gr::Supervisor supervisor(&clock, &bus, &monitor);
  int remediations = 0;
  bool escalation_event = false;
  bus.subscribe("supervisor.episode.escalated",
                [&escalation_event](const gc::Event&) { escalation_event = true; });
  supervisor.set_playbook(
      "svc", {.name = "restart-svc",
              .remediate =
                  [&serving, &remediations]() -> gr::RemediationOutcome {
                    ++remediations;
                    if (remediations >= 4) {  // fix lands after escalation
                      serving = true;
                      return {};
                    }
                    return {.status = genio::common::unavailable("still dead")};
                  },
              .max_attempts = 2,
              .retry_gap = at_s(20)});

  serving = false;
  for (int i = 0; i < 16; ++i) {
    clock.advance(at_s(60));
    supervisor.tick();
    if (i > 0 && supervisor.steady_state()) break;
  }
  EXPECT_TRUE(supervisor.steady_state());
  EXPECT_TRUE(escalation_event);
  EXPECT_EQ(remediations, 4);

  const auto& episode = supervisor.ledger().episodes().front();
  EXPECT_TRUE(episode.escalated);
  // Repaired after escalation: closed as kEscalated, never silently
  // upgraded to a clean resolve.
  EXPECT_EQ(episode.outcome, gr::EpisodeOutcome::kEscalated);
  EXPECT_EQ(supervisor.ledger().escalated_count(), 1u);
  EXPECT_EQ(supervisor.ledger().resolved_count(), 0u);
}

TEST(Supervisor, UnattemptedRemediationIsNotChargedAgainstBudget) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = true;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1, .up_after = 1});
  gr::Supervisor supervisor(&clock, &bus, &monitor);
  supervisor.set_playbook(
      "svc", {.name = "wait-for-substrate",
              .remediate = []() -> gr::RemediationOutcome {
                return {.attempted = false};  // preconditions never met
              },
              .max_attempts = 2,
              .retry_gap = at_s(20)});

  serving = false;
  for (int i = 0; i < 10; ++i) {
    clock.advance(at_s(60));
    supervisor.tick();
  }
  const auto& episode = supervisor.ledger().episodes().front();
  EXPECT_EQ(episode.attempts, 0);
  EXPECT_FALSE(episode.escalated) << "waiting must not exhaust the budget";

  serving = true;  // substrate heals on its own
  clock.advance(at_s(60));
  supervisor.tick();
  EXPECT_EQ(supervisor.ledger().resolved_count(), 1u);
}

TEST(Supervisor, VerifyPredicateGatesResolution) {
  gc::SimClock clock;
  gc::EventBus bus;
  gr::HealthMonitor monitor(&clock, &bus);
  bool serving = true;
  bool reauthed = true;
  monitor.add_target("svc", [&serving] { return serving; },
                     {.down_after = 1, .up_after = 1});
  gr::Supervisor supervisor(&clock, &bus, &monitor);
  supervisor.set_playbook(
      "svc", {.name = "reauth",
              .remediate =
                  [&reauthed]() -> gr::RemediationOutcome {
                    reauthed = true;
                    return {};
                  },
              .verify = [&reauthed] { return reauthed; },
              .retry_gap = at_s(20)});

  serving = false;
  reauthed = false;
  clock.advance(at_s(30));
  supervisor.observe();  // down: episode opens
  serving = true;        // substrate back, but session not re-established
  clock.advance(at_s(30));
  supervisor.observe();
  EXPECT_EQ(supervisor.ledger().open_count(), 1u)
      << "healthy-but-unverified must keep the episode open";

  supervisor.reconcile();  // re-auth runs
  clock.advance(at_s(30));
  supervisor.observe();
  EXPECT_EQ(supervisor.ledger().resolved_count(), 1u);
}

// ---------------------------------------------------------------------------
// Platform wiring: the supervisor heals a real chaos storm end to end.

as::ContainerImage make_clean_image() {
  as::ContainerImage image("registry.genio.io/tenant-a/clean-app", "1.0.0");
  image.add_layer({{"/app/main.py", gc::to_bytes("print(\"serving\")\n")}});
  image.add_package({"flask", gc::Version(2, 0, 1), "pypi"});
  image.set_entrypoint("/app/main.py");
  return image;
}

struct Site {
  core::GenioPlatform platform;
  core::DeploymentPipeline pipeline;
  core::SelfHealingSupervisor shs;

  explicit Site(std::uint64_t seed)
      : platform([seed] {
          core::PlatformConfig config;
          config.seed = seed;
          return config;
        }()),
        pipeline(&platform),
        shs(&platform, &pipeline) {
    auto publisher =
        genio::crypto::SigningKey::generate(platform.rng().bytes(32), 4);
    (void)platform.register_tenant("tenant-a", publisher.public_key());
    (void)platform.registry().push_signed(make_clean_image(), "tenant-a",
                                          publisher);
    (void)platform.boot_host();
    (void)platform.activate_pon();
  }

  void run_ticks(int n, gc::SimTime dt = gc::SimTime::from_seconds(30)) {
    for (int i = 0; i < n; ++i) {
      platform.advance_time(dt);
      shs.tick();
    }
  }
};

TEST(SelfHealingPlatform, HealsNodeCrashOnuChurnAndTpmTransient) {
  Site site(7);
  auto& chaos = site.platform.chaos();
  chaos.schedule({.kind = gr::FaultKind::kNodeCrash, .target = "olt-node-1",
                  .at = at_s(60), .duration = at_s(120)});
  chaos.schedule({.kind = gr::FaultKind::kOnuChurn, .target = "GNIO000001",
                  .at = at_s(90), .duration = at_s(60)});
  chaos.schedule({.kind = gr::FaultKind::kTpmTransient, .target = "tpm",
                  .at = at_s(120), .duration = at_s(30), .magnitude = 2});

  // Deploy a workload that the node crash will knock over.
  const auto report = site.pipeline.deploy(
      {.tenant = "tenant-a",
       .image_reference = "registry.genio.io/tenant-a/clean-app:1.0.0",
       .app_name = "victim",
       .limits = gm::ResourceQuantity{0.1, 64}});
  ASSERT_TRUE(report.deployed);

  site.run_ticks(40);  // 20 min: storm lands, supervisor repairs

  EXPECT_TRUE(site.shs.steady_state());
  EXPECT_EQ(site.platform.cluster().failed_pod_count(), 0u);
  EXPECT_EQ(site.platform.tpm().pending_transient_failures(), 0u);
  EXPECT_GE(site.shs.ledger().resolved_count(), 3u);
  EXPECT_EQ(site.shs.ledger().open_count(), 0u);
  EXPECT_GT(site.shs.ledger().mean_time_to_repair_seconds(), 0.0);

  // The posture report folds the ledger in.
  genio::os::BootReport boot;
  boot.booted = true;
  const auto posture = core::evaluate_posture(site.platform, boot,
                                              &site.shs.ledger());
  EXPECT_TRUE(posture.self_healing.supervised);
  EXPECT_EQ(posture.self_healing.episodes_open, 0u);
  EXPECT_GE(posture.self_healing.episodes_resolved, 3u);
}

// ---------------------------------------------------------------------------
// Property sweep (satellite): remediation never bypasses security gates.
// Across 50 chaos seeds, every deployment the supervisor resurrects after
// a registry outage carries a full pipeline verdict: no stage failed open
// and no configured gate was skipped.

TEST(SelfHealingProperty, RemediationNeverBypassesGatesAcross50Seeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Site site(seed);
    auto& chaos = site.platform.chaos();
    // Guaranteed registry outage long enough to defeat the pull retry
    // budget, plus a node crash and a light random storm on top.
    chaos.schedule({.kind = gr::FaultKind::kRegistryOutage, .target = "registry",
                    .at = at_s(120), .duration = at_s(400)});
    chaos.schedule({.kind = gr::FaultKind::kNodeCrash, .target = "olt-node-1",
                    .at = at_s(300), .duration = at_s(120)});
    chaos.schedule_random(6, gc::SimTime::from_hours(1), at_s(60));

    for (int tick = 0; tick < 30; ++tick) {
      site.platform.advance_time(gc::SimTime::from_seconds(30));
      const core::DeploymentRequest request{
          .tenant = "tenant-a",
          .image_reference = "registry.genio.io/tenant-a/clean-app:1.0.0",
          .app_name = "app-" + std::to_string(tick),
          .limits = gm::ResourceQuantity{0.1, 64}};
      const auto report = site.pipeline.deploy(request);
      EXPECT_EQ(report.failed_open_count(), 0u) << "seed " << seed;
      if (!report.deployed && report.blocked_by() == "pull") {
        site.shs.enqueue_deployment(request);
      }
      site.shs.tick();
    }
    site.run_ticks(120);  // let the storm revert and the loop converge

    // Every parked deployment was replayed — with a recorded verdict.
    EXPECT_EQ(site.shs.queued_deployments(), 0u) << "seed " << seed;
    EXPECT_EQ(site.shs.remediation_reports().size(),
              site.shs.total_enqueued() - site.shs.queued_deployments())
        << "seed " << seed;
    for (const auto& replay : site.shs.remediation_reports()) {
      EXPECT_EQ(replay.failed_open_count(), 0u)
          << "seed " << seed << ": remediation must never fail open";
      EXPECT_TRUE(replay.skipped_gates().empty())
          << "seed " << seed << ": remediation must not skip a configured gate";
    }
    // Resurrected pods came through the pipeline, not around it: every
    // running pod maps to a deploy or replay verdict.
    EXPECT_TRUE(site.shs.steady_state()) << "seed " << seed;
  }
}

}  // namespace
