// Chaos/resilience sweep: the same seeded fault schedule is replayed
// against the platform twice — resilience policies OFF (the legacy
// implicit contract: no retries, no failover, no rescheduling, gates fail
// open on scanner errors) and ON (bounded retries with backoff, circuit-
// breaker SDN failover, fail-closed/degrade gate policies, failed-pod
// rescheduling). The sweep demonstrates the PR's acceptance criteria:
//   * OFF at baseline fault rate: at least one gate fails open or a
//     deployed workload vanishes (kFailed, never rescheduled);
//   * ON at the same seeds: no gate ever fails open, no workload is lost,
//     operation availability >= 99% at the baseline fault rate, and the
//     posture report flags every degraded mitigation while faults are
//     active.
// Exits nonzero if any invariant breaks. `--smoke` runs a reduced sweep
// for CI.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/posture.hpp"

namespace gc = genio::common;
namespace gr = genio::resilience;
namespace gm = genio::middleware;
namespace as = genio::appsec;
namespace core = genio::core;

namespace {

constexpr int kTicks = 120;  // one op pair every 30 s over a 1 h window
const gc::SimTime kTick = gc::SimTime::from_seconds(30);

as::ContainerImage make_clean_image() {
  as::ContainerImage image("registry.genio.io/tenant-a/clean-app", "1.0.0");
  image.add_layer({{"/app/main.py", gc::to_bytes("print(\"serving\")\n")}});
  image.add_package({"flask", gc::Version(2, 0, 1), "pypi"});
  image.set_entrypoint("/app/main.py");
  return image;
}

struct RunResult {
  int ops = 0;
  int ok_ops = 0;
  int deployments = 0;
  int deployed = 0;
  std::size_t failed_open = 0;
  std::size_t vanished = 0;       // deployed pods kFailed at end of run
  std::size_t rescheduled = 0;
  std::uint64_t failovers = 0;
  std::size_t faults_injected = 0;
  bool posture_flagged_all = true;  // every observed outage was flagged

  double availability() const {
    return ops == 0 ? 1.0 : static_cast<double>(ok_ops) / static_cast<double>(ops);
  }
};

RunResult run_drill(std::uint64_t seed, int fault_count, bool resilience) {
  core::PlatformConfig config;
  config.seed = seed;
  config.resilience_policies = resilience;
  core::GenioPlatform platform(config);
  auto publisher = genio::crypto::SigningKey::generate(platform.rng().bytes(32), 4);
  (void)platform.register_tenant("tenant-a", publisher.public_key());
  (void)platform.registry().push_signed(make_clean_image(), "tenant-a", publisher);
  const auto boot = platform.boot_host();
  (void)platform.activate_pon();

  platform.chaos().schedule_random(fault_count, gc::SimTime::from_hours(1),
                                   gc::SimTime::from_seconds(60));

  core::DeploymentPipeline pipeline(&platform);
  RunResult result;
  std::vector<std::string> deployed_pods;  // "ns/name"

  for (int tick = 0; tick < kTicks; ++tick) {
    platform.advance_time(kTick);

    // Operation 1: SDN northbound call. With resilience the failover shim
    // absorbs a dead primary; without it callers hit the primary directly.
    ++result.ops;
    const auto sdn_status =
        resilience ? platform.onos_failover().api_call("svc-genio-nbi",
                                                       "cert:svc-genio-nbi",
                                                       gm::SdnCapability::kLogicalConfig)
                   : platform.onos().api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                                              gm::SdnCapability::kLogicalConfig);
    if (sdn_status.ok()) ++result.ok_ops;

    // Operation 2: deploy a workload through the full gate pipeline.
    ++result.ops;
    ++result.deployments;
    const auto report = pipeline.deploy(
        {.tenant = "tenant-a",
         .image_reference = "registry.genio.io/tenant-a/clean-app:1.0.0",
         .app_name = "app-" + std::to_string(tick),
         .limits = gm::ResourceQuantity{0.1, 64}});
    result.failed_open += report.failed_open_count();
    if (report.deployed) {
      ++result.deployed;
      ++result.ok_ops;
      deployed_pods.push_back(report.pod_ref);
    }

    // Self-healing loop: only the resilient platform repairs failed pods.
    if (resilience) {
      result.rescheduled += platform.cluster().reschedule_failed().recovered;
    }

    // Posture must flag every outage it can currently observe.
    if (tick % 10 == 5) {
      const bool any_degraded = !platform.registry().available() ||
                                !platform.feed_service().available() ||
                                !platform.onos().available() ||
                                !platform.odn().feeder_up() ||
                                platform.cluster().failed_pod_count() > 0;
      if (any_degraded) {
        const auto posture = core::evaluate_posture(platform, boot);
        result.posture_flagged_all &= posture.degraded();
      }
    }
  }

  // Let every outstanding fault heal, give the resilient cluster one final
  // repair pass, then count what was lost.
  platform.advance_time(gc::SimTime::from_hours(1));
  if (resilience) {
    result.rescheduled += platform.cluster().reschedule_failed().recovered;
  }
  for (const auto& ref : deployed_pods) {
    const auto slash = ref.find('/');
    const auto* pod =
        platform.cluster().find_pod(ref.substr(0, slash), ref.substr(slash + 1));
    if (pod == nullptr || pod->phase == gm::PodPhase::kFailed) ++result.vanished;
  }
  if (resilience) result.failovers = platform.onos_failover().failovers();
  result.faults_injected = platform.chaos().stats().injected;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = genio::bench::parse_args(argc, argv).smoke;

  const std::vector<int> fault_rates = smoke ? std::vector<int>{4, 12}
                                             : std::vector<int>{4, 12, 24};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};
  const int baseline_rate = fault_rates.front();

  std::printf("=== chaos/resilience sweep: %d ticks x %zu rates x %zu seeds ===\n\n",
              kTicks, fault_rates.size(), seeds.size());

  gc::Table table({"faults/h", "seed", "mode", "avail %", "deployed", "failed-open",
                   "vanished", "rescheduled", "failovers"});

  bool off_showed_damage = false;   // the hazard the PR closes must exist
  bool on_never_failed_open = true;
  bool on_never_lost_pods = true;
  bool on_baseline_available = true;
  bool posture_always_flagged = true;

  for (const int rate : fault_rates) {
    for (const auto seed : seeds) {
      for (const bool resilience : {false, true}) {
        const RunResult r = run_drill(seed, rate, resilience);
        table.add_row({std::to_string(rate), std::to_string(seed),
                       resilience ? "ON" : "off",
                       gc::format_double(100.0 * r.availability(), 2),
                       std::to_string(r.deployed) + "/" + std::to_string(r.deployments),
                       std::to_string(r.failed_open), std::to_string(r.vanished),
                       std::to_string(r.rescheduled), std::to_string(r.failovers)});
        if (!resilience) {
          off_showed_damage |= r.failed_open > 0 || r.vanished > 0;
        } else {
          on_never_failed_open &= r.failed_open == 0;
          on_never_lost_pods &= r.vanished == 0;
          if (rate == baseline_rate) {
            on_baseline_available &= r.availability() >= 0.99;
          }
          posture_always_flagged &= r.posture_flagged_all;
        }
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  genio::bench::Gate gate({genio::bench::kChecklist});
  gate.check(off_showed_damage,
             "resilience off: injected faults caused a fail-open gate or a lost workload");
  gate.check(on_never_failed_open, "resilience on: no gate ever failed open");
  gate.check(on_never_lost_pods, "resilience on: no deployed workload vanished");
  gate.check(on_baseline_available, "resilience on: availability >= 99% at baseline fault rate");
  gate.check(posture_always_flagged, "posture flagged every observed degraded mitigation");
  std::printf("\n%s\n", gate.ok() ? "all invariants hold"
                                  : "INVARIANT VIOLATION — see rows above");
  return gate.exit_code();
}
