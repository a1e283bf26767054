// Tests for the resilience layer: retry/backoff determinism, deadlines,
// the circuit-breaker state machine, the chaos engine's scheduled fault
// timeline, the substrate fault hooks it drives (PON medium, cluster
// nodes, SDN controllers, registry, vuln feed, TPM), and the end-to-end
// degradation paths through the deployment pipeline and posture report.
#include <gtest/gtest.h>

#include "genio/core/pipeline.hpp"
#include "genio/core/platform.hpp"
#include "genio/core/posture.hpp"
#include "genio/resilience/chaos.hpp"
#include "genio/resilience/circuit_breaker.hpp"
#include "genio/resilience/policy.hpp"

namespace gc = genio::common;
namespace gr = genio::resilience;
namespace gm = genio::middleware;
namespace gp = genio::pon;
namespace cr = genio::crypto;
namespace core = genio::core;
namespace as = genio::appsec;

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffGrowsAndCaps) {
  gr::RetryPolicy policy;
  policy.initial_backoff = gc::SimTime::from_millis(100);
  policy.multiplier = 2.0;
  policy.max_backoff = gc::SimTime::from_millis(350);
  policy.jitter = 0.0;
  gc::Rng rng(1);
  EXPECT_EQ(policy.backoff(1, rng).nanos(), gc::SimTime::from_millis(100).nanos());
  EXPECT_EQ(policy.backoff(2, rng).nanos(), gc::SimTime::from_millis(200).nanos());
  // 400ms capped at 350ms.
  EXPECT_EQ(policy.backoff(3, rng).nanos(), gc::SimTime::from_millis(350).nanos());
}

TEST(RetryPolicy, JitterStaysWithinBound) {
  gr::RetryPolicy policy;
  policy.initial_backoff = gc::SimTime::from_millis(100);
  policy.jitter = 0.5;
  gc::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto delay = policy.backoff(1, rng);
    EXPECT_GE(delay.nanos(), gc::SimTime::from_millis(100).nanos());
    EXPECT_LE(delay.nanos(), gc::SimTime::from_millis(150).nanos());
  }
}

TEST(RetryPolicy, BackoffDeterministicPerSeed) {
  gr::RetryPolicy policy;
  gc::Rng a(42), b(42);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(policy.backoff(attempt, a).nanos(), policy.backoff(attempt, b).nanos());
  }
}

TEST(Retry, SucceedsAfterTransientFailures) {
  gc::SimClock clock;
  gc::Rng rng(3);
  int calls = 0;
  gr::RetryPolicy policy;
  policy.max_attempts = 5;
  gr::RetryStats stats;
  const auto result = gr::retry(
      policy, rng, [&clock](gc::SimTime d) { clock.advance(d); },
      [&]() -> gc::Result<int> {
        ++calls;
        if (calls < 3) return gc::unavailable("flaky");
        return 99;
      },
      &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 99);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_GT(stats.total_backoff.nanos(), 0);
  EXPECT_GT(clock.now().nanos(), 0);  // the sleep advanced the clock
}

TEST(Retry, DoesNotRetryNonTransientErrors) {
  gc::Rng rng(3);
  int calls = 0;
  gr::RetryPolicy policy;
  policy.max_attempts = 5;
  const auto result = gr::retry(policy, rng, nullptr, [&]() -> gc::Result<int> {
    ++calls;
    return gc::signature_invalid("will not verify harder on attempt 3");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(calls, 1);
}

TEST(Retry, ExhaustsAttemptsOnPersistentOutage) {
  gc::Rng rng(3);
  int calls = 0;
  gr::RetryPolicy policy;
  policy.max_attempts = 4;
  gr::RetryStats stats;
  const auto result = gr::retry(
      policy, rng, nullptr,
      [&]() -> gc::Status {
        ++calls;
        return gc::unavailable("still down");
      },
      &stats);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(stats.attempts, 4);
}

TEST(Deadline, ExpiresWithClock) {
  gc::SimClock clock;
  gr::Deadline deadline(&clock, gc::SimTime::from_seconds(10));
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(deadline.check("op").ok());
  clock.advance(gc::SimTime::from_seconds(9));
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining().nanos(), gc::SimTime::from_seconds(1).nanos());
  clock.advance(gc::SimTime::from_seconds(2));
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining().nanos(), 0);
  const auto st = deadline.check("unseal");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kTimeout);
}

// -------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, OpensAtThresholdAndRejects) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker("onos", &clock, {.failure_threshold = 3});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), gr::BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.stats().rejected, 1u);
}

TEST(CircuitBreaker, HalfOpensAfterCooldownAndCloses) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker(
      "onos", &clock,
      {.failure_threshold = 2, .open_duration = gc::SimTime::from_seconds(30)});
  breaker.record_failure();
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), gr::BreakerState::kOpen);
  clock.advance(gc::SimTime::from_seconds(31));
  EXPECT_TRUE(breaker.allow());  // probe admitted
  EXPECT_EQ(breaker.state(), gr::BreakerState::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), gr::BreakerState::kClosed);
}

TEST(CircuitBreaker, ProbeFailureReopens) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker(
      "onos", &clock,
      {.failure_threshold = 1, .open_duration = gc::SimTime::from_seconds(5)});
  breaker.record_failure();
  clock.advance(gc::SimTime::from_seconds(6));
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), gr::BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, HalfOpenAdmitsBoundedProbes) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker("onos", &clock,
                             {.failure_threshold = 1,
                              .open_duration = gc::SimTime::from_seconds(1),
                              .half_open_probes = 2});
  breaker.record_failure();
  clock.advance(gc::SimTime::from_seconds(2));
  EXPECT_TRUE(breaker.allow());
  EXPECT_TRUE(breaker.allow());
  EXPECT_FALSE(breaker.allow());  // probe budget exhausted
}

TEST(CircuitBreaker, TransitionLogIsDeterministic) {
  auto run = [] {
    gc::SimClock clock;
    gr::CircuitBreaker breaker(
        "b", &clock,
        {.failure_threshold = 2, .open_duration = gc::SimTime::from_seconds(10)});
    breaker.record_failure();
    clock.advance(gc::SimTime::from_seconds(1));
    breaker.record_failure();
    clock.advance(gc::SimTime::from_seconds(11));
    (void)breaker.allow();
    breaker.record_success();
    return breaker.transitions();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 3u);  // open, half-open, closed
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at.nanos(), b[i].at.nanos());
    EXPECT_EQ(a[i].to, b[i].to);
  }
  EXPECT_EQ(a[0].to, gr::BreakerState::kOpen);
  EXPECT_EQ(a[1].to, gr::BreakerState::kHalfOpen);
  EXPECT_EQ(a[2].to, gr::BreakerState::kClosed);
}

TEST(CircuitBreaker, CallWrapperFeedsOutcomesBack) {
  gc::SimClock clock;
  gr::CircuitBreaker breaker("svc", &clock, {.failure_threshold = 2});
  auto fail = [] { return gc::Status(gc::unavailable("down")); };
  EXPECT_FALSE(breaker.call(fail).ok());
  EXPECT_FALSE(breaker.call(fail).ok());
  EXPECT_EQ(breaker.state(), gr::BreakerState::kOpen);
  const auto rejected = breaker.call([] { return gc::Status::success(); });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), gc::ErrorCode::kUnavailable);
}

// ------------------------------------------------------------ chaos engine

namespace {

struct ToggleTarget {
  bool down = false;
  gr::FaultTarget handlers() {
    return {.apply = [this](const gr::FaultSpec&) { down = true; },
            .revert = [this](const gr::FaultSpec&) { down = false; }};
  }
};

}  // namespace

TEST(ChaosEngine, AppliesAndRevertsOnTimeline) {
  gc::SimClock clock;
  gc::EventQueue queue(&clock);
  gc::EventBus bus(&clock);
  gr::ChaosEngine chaos(&queue, &bus, gc::Rng(5));
  ToggleTarget link;
  chaos.register_target(gr::FaultKind::kPonLinkFlap, "odn", link.handlers());

  std::vector<std::string> events;
  bus.subscribe("chaos.", [&](const gc::Event& e) { events.push_back(e.topic); });

  chaos.schedule({.kind = gr::FaultKind::kPonLinkFlap,
                  .target = "odn",
                  .at = gc::SimTime::from_seconds(10),
                  .duration = gc::SimTime::from_seconds(5)});
  (void)queue.run_until(gc::SimTime::from_seconds(12));
  EXPECT_TRUE(link.down);
  ASSERT_EQ(chaos.active_faults().size(), 1u);
  EXPECT_EQ(chaos.active_faults()[0].target, "odn");

  (void)queue.run_until(gc::SimTime::from_seconds(20));
  EXPECT_FALSE(link.down);
  EXPECT_TRUE(chaos.active_faults().empty());
  EXPECT_EQ(chaos.stats().injected, 1u);
  EXPECT_EQ(chaos.stats().reverted, 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "chaos.fault.injected");
  EXPECT_EQ(events[1], "chaos.fault.reverted");
  EXPECT_EQ(clock.now().nanos(), gc::SimTime::from_seconds(20).nanos());
}

TEST(ChaosEngine, RandomScheduleDeterministicPerSeed) {
  auto draw = [](std::uint64_t seed) {
    gc::SimClock clock;
    gc::EventQueue queue(&clock);
    gr::ChaosEngine chaos(&queue, nullptr, gc::Rng(seed));
    ToggleTarget a, b;
    chaos.register_target(gr::FaultKind::kPonLinkFlap, "odn", a.handlers());
    chaos.register_target(gr::FaultKind::kSdnOutage, "onos", b.handlers());
    chaos.schedule_random(20, gc::SimTime::from_hours(1), gc::SimTime::from_seconds(60));
    return chaos.scheduled();
  };
  const auto x = draw(11);
  const auto y = draw(11);
  const auto z = draw(12);
  ASSERT_EQ(x.size(), 20u);
  ASSERT_EQ(x.size(), y.size());
  bool all_equal_to_z = x.size() == z.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].target, y[i].target);
    EXPECT_EQ(x[i].at.nanos(), y[i].at.nanos());
    EXPECT_EQ(x[i].duration.nanos(), y[i].duration.nanos());
    if (all_equal_to_z) {
      all_equal_to_z = x[i].target == z[i].target && x[i].at == z[i].at &&
                       x[i].duration == z[i].duration;
    }
  }
  EXPECT_FALSE(all_equal_to_z) << "different seeds drew identical schedules";
}

TEST(ChaosEngine, OverlappingFaultsTrackedIndependently) {
  gc::SimClock clock;
  gc::EventQueue queue(&clock);
  gr::ChaosEngine chaos(&queue, nullptr, gc::Rng(5));
  ToggleTarget link, sdn;
  chaos.register_target(gr::FaultKind::kPonLinkFlap, "odn", link.handlers());
  chaos.register_target(gr::FaultKind::kSdnOutage, "onos", sdn.handlers());
  chaos.schedule({.kind = gr::FaultKind::kPonLinkFlap,
                  .target = "odn",
                  .at = gc::SimTime::from_seconds(1),
                  .duration = gc::SimTime::from_seconds(100)});
  chaos.schedule({.kind = gr::FaultKind::kSdnOutage,
                  .target = "onos",
                  .at = gc::SimTime::from_seconds(2),
                  .duration = gc::SimTime::from_seconds(3)});
  (void)queue.run_until(gc::SimTime::from_seconds(10));
  EXPECT_TRUE(link.down);
  EXPECT_FALSE(sdn.down);  // reverted at t=5
  EXPECT_EQ(chaos.active_faults().size(), 1u);
}

namespace {

// One feeder-flap target on a queue-driven engine.
struct FlapRig {
  gc::SimClock clock;
  gc::EventQueue queue{&clock};
  gr::ChaosEngine chaos{&queue, nullptr, gc::Rng(5)};
  ToggleTarget link;

  FlapRig() { chaos.register_target(gr::FaultKind::kPonLinkFlap, "odn", link.handlers()); }
  void flap(int start_s, int duration_s) {
    chaos.schedule({.kind = gr::FaultKind::kPonLinkFlap,
                    .target = "odn",
                    .at = gc::SimTime::from_seconds(start_s),
                    .duration = gc::SimTime::from_seconds(duration_s)});
  }
  void run_to(int t_s) { (void)queue.run_until(gc::SimTime::from_seconds(t_s)); }
};

}  // namespace

// Regression: A holds the feeder down over [10 s, 20 s) and B over
// [20 s, 30 s). Both edges at 20 s run in schedule order, so A's revert
// comes before B's injection and the feeder stays down for all of B.
// Ordering injections before reversions at equal times would let A's
// revert bring the feeder back up for B's whole window.
TEST(ChaosEngine, BackToBackFaultsOnOneTargetBothHold) {
  FlapRig rig;
  rig.flap(10, 10);
  rig.flap(20, 10);
  rig.run_to(15);
  EXPECT_TRUE(rig.link.down);
  rig.run_to(25);
  EXPECT_TRUE(rig.link.down) << "B must hold the feeder down over [20 s, 30 s)";
  ASSERT_EQ(rig.chaos.active_faults().size(), 1u);
  EXPECT_EQ(rig.chaos.active_faults()[0].id, 2);
  rig.run_to(30);
  EXPECT_FALSE(rig.link.down);
  EXPECT_EQ(rig.chaos.stats().injected, 2u);
  EXPECT_EQ(rig.chaos.stats().reverted, 2u);
}

// Reverts stay per fault: when two faults overlap on one target, the first
// revert heals it even though the second has not ended.
TEST(ChaosEngine, FirstRevertHealsAnOverlappedTarget) {
  FlapRig rig;
  rig.flap(10, 20);
  rig.flap(20, 20);
  rig.run_to(35);
  EXPECT_FALSE(rig.link.down);
  EXPECT_EQ(rig.chaos.active_faults().size(), 1u);
}

// ------------------------------------------------------- substrate hooks

namespace {

struct CountingOnu final : gp::OnuDevice {
  int frames = 0;
  gp::GemFrame last;
  void on_downstream(const gp::DownstreamView& view) override {
    ++frames;
    last = view.frame();
  }
};

}  // namespace

TEST(OdnFaults, FeederDownDropsAllFrames) {
  gp::Odn odn;
  CountingOnu onu;
  odn.attach_onu(&onu);
  gp::GemFrame frame;
  frame.payload = gc::to_bytes("hello");
  frame.seal_fcs();
  odn.downstream(frame);
  EXPECT_EQ(onu.frames, 1);
  odn.set_feeder_up(false);
  odn.downstream(frame);
  odn.downstream(frame);
  EXPECT_EQ(onu.frames, 1);
  EXPECT_EQ(odn.stats().dropped_frames, 2u);
  odn.set_feeder_up(true);
  odn.downstream(frame);
  EXPECT_EQ(onu.frames, 2);
}

TEST(OdnFaults, BitErrorBurstCorruptsFramesDeterministically) {
  gp::Odn odn;
  CountingOnu onu;
  odn.attach_onu(&onu);
  gp::GemFrame frame;
  frame.payload = gc::to_bytes("payload-bytes");
  frame.seal_fcs();

  odn.set_bit_error_rate(1.0, gc::Rng(9));  // corrupt every frame
  odn.downstream(frame);
  ASSERT_EQ(onu.frames, 1);
  EXPECT_NE(onu.last.payload, frame.payload);
  EXPECT_FALSE(onu.last.fcs_valid());  // receivers detect the flip via FCS
  EXPECT_EQ(odn.stats().corrupted_frames, 1u);

  odn.clear_bit_errors();
  odn.downstream(frame);
  EXPECT_EQ(onu.last.payload, frame.payload);
  EXPECT_TRUE(onu.last.fcs_valid());
}

TEST(ClusterFaults, CrashFailsPodsAndReleasesCapacity) {
  core::GenioPlatform platform({});
  auto publisher = cr::SigningKey::generate(gc::to_bytes("pub"), 4);
  (void)platform.register_tenant("tenant-a", publisher.public_key());
  gm::PodSpec spec;
  spec.name = "app";
  spec.ns = "tenant-a";
  spec.container.image = "registry.genio.io/tenant-a/app:1.0.0";
  spec.container.limits = gm::ResourceQuantity{1.0, 512};
  spec.container.run_as_root = false;
  const auto ref = platform.cluster().create_pod("tenant-a:deployer", spec);
  ASSERT_TRUE(ref.ok()) << ref.error().to_string();
  const gm::Pod* pod = platform.cluster().find_pod("tenant-a", "app");
  ASSERT_NE(pod, nullptr);
  const std::string node_name = pod->node;

  platform.cluster().set_node_health(node_name, gm::NodeHealth::kCrashed);
  pod = platform.cluster().find_pod("tenant-a", "app");
  EXPECT_EQ(pod->phase, gm::PodPhase::kFailed);
  const gm::Node* dead = platform.cluster().find_node(node_name);
  EXPECT_EQ(dead->allocated.cpu_cores, 0.0);
  EXPECT_EQ(dead->allocated.mem_mb, 0);
  EXPECT_EQ(platform.cluster().failed_pod_count(), 1u);

  // Reschedule lands it on the surviving node.
  const gm::RescheduleReport resched = platform.cluster().reschedule_failed();
  EXPECT_EQ(resched.recovered, 1u);
  EXPECT_TRUE(resched.fully_recovered());
  pod = platform.cluster().find_pod("tenant-a", "app");
  EXPECT_EQ(pod->phase, gm::PodPhase::kRunning);
  EXPECT_NE(pod->node, node_name);
  EXPECT_EQ(platform.cluster().failed_pod_count(), 0u);
}

TEST(ClusterFaults, StalledNodeKeepsPodsButRefusesNewOnes) {
  core::GenioPlatform platform({});
  auto publisher = cr::SigningKey::generate(gc::to_bytes("pub"), 4);
  (void)platform.register_tenant("tenant-a", publisher.public_key());
  gm::PodSpec spec;
  spec.name = "app";
  spec.ns = "tenant-a";
  spec.container.image = "registry.genio.io/tenant-a/app:1.0.0";
  spec.container.limits = gm::ResourceQuantity{1.0, 512};
  spec.container.run_as_root = false;
  ASSERT_TRUE(platform.cluster().create_pod("tenant-a:deployer", spec).ok());
  const std::string first_node = platform.cluster().find_pod("tenant-a", "app")->node;

  platform.cluster().set_node_health(first_node, gm::NodeHealth::kStalled);
  // Existing pod unaffected.
  EXPECT_EQ(platform.cluster().find_pod("tenant-a", "app")->phase,
            gm::PodPhase::kRunning);
  // New pod must land elsewhere.
  spec.name = "app2";
  ASSERT_TRUE(platform.cluster().create_pod("tenant-a:deployer", spec).ok());
  EXPECT_NE(platform.cluster().find_pod("tenant-a", "app2")->node, first_node);
}

TEST(SdnFaults, FailoverRoutesAroundDeadPrimary) {
  gc::SimClock clock;
  auto primary = gm::make_hardened_onos();
  auto standby = gm::make_hardened_onos();
  gm::SdnFailover failover(&primary, &standby, &clock,
                           {.failure_threshold = 2,
                            .open_duration = gc::SimTime::from_seconds(30)});
  const auto call = [&] {
    return failover.api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                             gm::SdnCapability::kLogicalConfig);
  };
  EXPECT_TRUE(call().ok());
  EXPECT_EQ(&failover.active(), &primary);

  primary.set_available(false);
  // Calls keep succeeding through the standby while the primary is down.
  EXPECT_TRUE(call().ok());
  EXPECT_TRUE(call().ok());
  EXPECT_EQ(failover.breaker().state(), gr::BreakerState::kOpen);
  EXPECT_EQ(&failover.active(), &standby);
  EXPECT_GE(failover.failovers(), 2u);
  EXPECT_GE(primary.stats().denied_unavailable, 2u);

  // Primary heals; after the cooldown a probe steers traffic back.
  primary.set_available(true);
  clock.advance(gc::SimTime::from_seconds(31));
  EXPECT_TRUE(call().ok());
  EXPECT_EQ(failover.breaker().state(), gr::BreakerState::kClosed);
  EXPECT_EQ(&failover.active(), &primary);
}

TEST(SdnFaults, PolicyDenialsDoNotTripTheBreaker) {
  gc::SimClock clock;
  auto primary = gm::make_hardened_onos();
  auto standby = gm::make_hardened_onos();
  gm::SdnFailover failover(&primary, &standby, &clock, {.failure_threshold = 2});
  for (int i = 0; i < 5; ++i) {
    // Capability denied: a policy answer, not an outage.
    EXPECT_FALSE(failover
                     .api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                               gm::SdnCapability::kShellAccess)
                     .ok());
  }
  EXPECT_EQ(failover.breaker().state(), gr::BreakerState::kClosed);
  EXPECT_EQ(failover.failovers(), 0u);
}

TEST(FeedFaults, OutageDegradesToSnapshotWithAge) {
  genio::vuln::CveDatabase db;
  genio::vuln::FeedHealthService service(&db);
  service.mark_refreshed(gc::SimTime::from_hours(0));
  ASSERT_TRUE(service.query("sca").ok());

  service.set_available(false);
  const auto during_outage = service.query("sca");
  ASSERT_FALSE(during_outage.ok());
  EXPECT_EQ(during_outage.error().code(), gc::ErrorCode::kUnavailable);
  EXPECT_EQ(service.snapshot_age(gc::SimTime::from_hours(6)).hours(), 6.0);

  service.set_available(true);
  EXPECT_TRUE(service.query("sca").ok());
}

TEST(TpmFaults, TransientFailuresRideOutUnderRetry) {
  genio::os::Tpm tpm(gc::to_bytes("seed"));
  tpm.inject_transient_failures(2);
  EXPECT_FALSE(tpm.extend(0, gc::to_bytes("m")).ok());
  EXPECT_EQ(tpm.pending_transient_failures(), 1);

  gc::Rng rng(4);
  gr::RetryPolicy policy;
  policy.max_attempts = 4;
  const auto st = gr::retry(policy, rng, nullptr,
                            [&] { return tpm.extend(0, gc::to_bytes("m")); });
  EXPECT_TRUE(st.ok());  // one more injected failure, then success
  EXPECT_EQ(tpm.pending_transient_failures(), 0);
}

// -------------------------------------------------- platform integration

namespace {

as::ContainerImage make_clean_image() {
  as::ContainerImage image("registry.genio.io/tenant-a/clean-app", "1.0.0");
  image.add_layer({{"/app/main.py", gc::to_bytes("print(\"serving\")\n")}});
  image.add_package({"flask", gc::Version(2, 0, 1), "pypi"});
  image.set_entrypoint("/app/main.py");
  return image;
}

struct ResilienceFixture {
  core::GenioPlatform platform;
  cr::SigningKey publisher = cr::SigningKey::generate(gc::to_bytes("tenant-a-pub"), 6);

  explicit ResilienceFixture(core::PlatformConfig config = {}) : platform(config) {
    (void)platform.register_tenant("tenant-a", publisher.public_key());
    (void)platform.registry().push_signed(make_clean_image(), "tenant-a", publisher);
  }

  core::DeploymentRequest request() const {
    return {.tenant = "tenant-a",
            .image_reference = "registry.genio.io/tenant-a/clean-app:1.0.0",
            .app_name = "clean-app"};
  }
};

}  // namespace

TEST(PlatformChaos, AllFaultTargetsRegistered) {
  core::GenioPlatform platform({});
  auto& chaos = platform.chaos();
  using gr::FaultKind;
  EXPECT_TRUE(chaos.target_registered(FaultKind::kPonLinkFlap, "odn"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kPonBitErrorBurst, "odn"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kOnuChurn, "GNIO000001"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kNodeCrash, "olt-node-1"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kKubeletStall, "olt-node-2"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kSdnOutage, "onos"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kSdnOutage, "voltha"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kRegistryOutage, "registry"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kFeedOutage, "cve-feed"));
  EXPECT_TRUE(chaos.target_registered(FaultKind::kTpmTransient, "tpm"));
}

TEST(PlatformChaos, RegistryOutageHealsDuringRetryBackoff) {
  ResilienceFixture f;
  // Registry goes down now, recovers 2 seconds later; the pull gate's
  // backoff (5s initial) sleeps through the reversion and succeeds.
  f.platform.chaos().schedule({.kind = gr::FaultKind::kRegistryOutage,
                               .target = "registry",
                               .at = f.platform.clock().now(),
                               .duration = gc::SimTime::from_seconds(2)});
  f.platform.advance_time(gc::SimTime{});
  ASSERT_FALSE(f.platform.registry().available());

  core::DeploymentPipeline pipeline(&f.platform);
  const auto report = pipeline.deploy(f.request());
  EXPECT_TRUE(report.deployed) << report.blocked_by();
  const auto* pull = report.stage("pull");
  ASSERT_NE(pull, nullptr);
  EXPECT_TRUE(pull->passed);
  EXPECT_NE(pull->detail.find("attempts"), std::string::npos);
  EXPECT_TRUE(f.platform.registry().available());  // chaos reverted mid-retry
}

TEST(PlatformChaos, PersistentRegistryOutageFailsClosed) {
  ResilienceFixture f;
  f.platform.chaos().schedule({.kind = gr::FaultKind::kRegistryOutage,
                               .target = "registry",
                               .at = f.platform.clock().now(),
                               .duration = gc::SimTime::from_hours(24)});
  f.platform.advance_time(gc::SimTime{});
  core::DeploymentPipeline pipeline(&f.platform);
  const auto report = pipeline.deploy(f.request());
  EXPECT_FALSE(report.deployed);
  EXPECT_EQ(report.blocked_by(), "pull");
}

TEST(PlatformChaos, FeedOutageDegradesScaToSnapshot) {
  ResilienceFixture f;
  f.platform.chaos().schedule({.kind = gr::FaultKind::kFeedOutage,
                               .target = "cve-feed",
                               .at = f.platform.clock().now(),
                               .duration = gc::SimTime::from_hours(8)});
  f.platform.advance_time(gc::SimTime{});
  core::DeploymentPipeline pipeline(&f.platform);
  const auto report = pipeline.deploy(f.request());
  EXPECT_TRUE(report.deployed) << report.blocked_by();
  const auto* sca = report.stage("sca");
  ASSERT_NE(sca, nullptr);
  EXPECT_TRUE(sca->degraded);
  EXPECT_NE(sca->detail.find("degraded"), std::string::npos);
  ASSERT_EQ(report.degraded_gates().size(), 1u);
  EXPECT_EQ(report.degraded_gates()[0], "sca");
}

TEST(PlatformChaos, FeedOutageFailsOpenWithoutResiliencePolicies) {
  core::PlatformConfig config;
  config.resilience_policies = false;
  ResilienceFixture f(config);
  f.platform.feed_service().set_available(false);
  core::DeploymentPipeline pipeline(&f.platform);
  const auto report = pipeline.deploy(f.request());
  EXPECT_TRUE(report.deployed);
  const auto* sca = report.stage("sca");
  ASSERT_NE(sca, nullptr);
  EXPECT_TRUE(sca->failed_open);  // the legacy hazard, now visible
  EXPECT_EQ(report.failed_open_count(), 1u);
}

TEST(PlatformChaos, PostureFlagsEveryDegradedMitigation) {
  core::GenioPlatform platform({});
  const auto boot = platform.boot_host();
  const auto healthy = core::evaluate_posture(platform, boot);
  EXPECT_FALSE(healthy.degraded());
  const double healthy_score = healthy.overall_score();

  platform.feed_service().set_available(false);
  platform.cluster().set_node_health("olt-node-1", gm::NodeHealth::kCrashed);
  platform.onos().set_available(false);
  platform.odn().set_feeder_up(false);
  const auto degraded = core::evaluate_posture(platform, boot);
  EXPECT_TRUE(degraded.degraded());
  EXPECT_GE(degraded.degraded_mitigations.size(), 4u);
  // Flags, not score: degradation is transient state, the configured
  // mitigations are unchanged.
  EXPECT_EQ(degraded.overall_score(), healthy_score);
  const std::string rendered = core::render_posture(degraded);
  EXPECT_NE(rendered.find("DEGRADED"), std::string::npos);
  EXPECT_NE(rendered.find("olt-node-1"), std::string::npos);
}

TEST(PlatformChaos, OnuChurnDetachesAndReattaches) {
  core::GenioPlatform platform({});
  ASSERT_EQ(platform.activate_pon(), platform.config().onu_count);
  const std::size_t attached = platform.odn().onu_count();
  platform.chaos().schedule({.kind = gr::FaultKind::kOnuChurn,
                             .target = "GNIO000002",
                             .at = platform.clock().now() + gc::SimTime::from_seconds(1),
                             .duration = gc::SimTime::from_seconds(10)});
  platform.advance_time(gc::SimTime::from_seconds(5));
  EXPECT_EQ(platform.odn().onu_count(), attached - 1);
  platform.advance_time(gc::SimTime::from_seconds(10));
  EXPECT_EQ(platform.odn().onu_count(), attached);
}

// ---------------------------------------------------------------------------
// Fault edges are ordinary EventQueue events. This schedule (two explicit
// faults and a six-fault storm) must replay the edge sequence and counts
// recorded when the engine still kept its own timeline and rescanned it on
// each queue wake: none of its edges tie, so the two agree on all of them.

TEST(ChaosEngine, QueueTimelineMatchesRecordedEdges) {
  using Timeline = std::vector<std::pair<std::int64_t, std::string>>;
  gc::SimClock clock;
  gc::EventQueue queue(&clock);
  gr::ChaosEngine chaos(&queue, nullptr, gc::Rng(9));
  Timeline timeline;
  const auto target = [&timeline, &clock](const std::string& name) {
    return gr::FaultTarget{
        .apply =
            [&timeline, &clock, name](const gr::FaultSpec& spec) {
              timeline.emplace_back(clock.now().nanos(),
                                    name + "+" + std::to_string(spec.id));
            },
        .revert =
            [&timeline, &clock, name](const gr::FaultSpec& spec) {
              timeline.emplace_back(clock.now().nanos(),
                                    name + "-" + std::to_string(spec.id));
            }};
  };
  chaos.register_target(gr::FaultKind::kPonLinkFlap, "odn", target("link"));
  chaos.register_target(gr::FaultKind::kSdnOutage, "onos", target("sdn"));

  chaos.schedule({.kind = gr::FaultKind::kPonLinkFlap,
                  .target = "odn",
                  .at = gc::SimTime::from_seconds(5),
                  .duration = gc::SimTime::from_seconds(10)});
  chaos.schedule({.kind = gr::FaultKind::kSdnOutage,
                  .target = "onos",
                  .at = gc::SimTime::from_seconds(8),
                  .duration = gc::SimTime::from_seconds(2)});
  (void)chaos.schedule_storm(gr::FaultKind::kPonLinkFlap, "odn", 6,
                             gc::SimTime::from_seconds(60),
                             gc::SimTime::from_seconds(5), 1234);
  (void)queue.run_until(gc::SimTime::from_seconds(300));

  const Timeline recorded = {
      {4126966437, "link+5"},  {5000000000, "link+1"},  {6248503425, "link-5"},
      {8000000000, "sdn+2"},   {10000000000, "sdn-2"},  {15000000000, "link-1"},
      {16047355584, "link+3"}, {16534165707, "link+8"}, {17064779817, "link-8"},
      {30695986136, "link-3"}, {53560861244, "link+7"}, {54078421546, "link-7"},
      {57314519801, "link+4"}, {58637704488, "link+6"}, {72725736697, "link-4"},
      {73505295888, "link-6"},
  };
  EXPECT_EQ(timeline, recorded);
  EXPECT_EQ(chaos.stats().injected, 8u);
  EXPECT_EQ(chaos.stats().reverted, 8u);
  EXPECT_EQ(clock.now(), gc::SimTime::from_seconds(300));
}
