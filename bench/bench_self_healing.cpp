// Self-healing MTTR sweep: the same seeded chaos storm is replayed in
// three arms that differ only in who repairs the damage —
//   chaos-only   resilience policies OFF, nobody remediates (the
//                supervisor observes so every arm shares one episode
//                clock, but never reconciles);
//   policies     resilience policies ON (retries, breaker failover,
//                fail-closed gates) plus a manual reschedule sweep every
//                ~5 minutes — the PR-2 posture, reactive but unsupervised;
//   supervisor   policies plus the full MAPE-K supervision loop: health
//                probes with hysteresis, remediation playbooks, episode
//                ledger.
// Invariants (exit nonzero if any breaks):
//   * the supervisor arm converges to steady state after the storm —
//     zero open episodes, zero unhealthy targets, empty replay queue;
//   * aggregate MTTR(supervisor) < MTTR(policies-only) at the baseline
//     fault rate;
//   * zero gate bypasses in the policies and supervisor arms — no stage
//     ever failed open and no remediation skipped a configured gate;
//   * the chaos-only arm shows the damage the loop exists to repair.
// Writes a machine-readable summary (per-arm MTTR, availability, episode
// counts, recovery trajectory) to BENCH_selfheal.json (or --out PATH).
// `--smoke` runs a reduced sweep for CI.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/posture.hpp"
#include "genio/core/self_healing.hpp"

namespace gc = genio::common;
namespace gr = genio::resilience;
namespace gm = genio::middleware;
namespace as = genio::appsec;
namespace core = genio::core;

namespace {

const gc::SimTime kTick = gc::SimTime::from_seconds(30);

enum class Arm { kChaosOnly, kPolicies, kSupervisor };

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kChaosOnly: return "chaos-only";
    case Arm::kPolicies: return "policies";
    case Arm::kSupervisor: return "supervisor";
  }
  return "?";
}

as::ContainerImage make_clean_image() {
  as::ContainerImage image("registry.genio.io/tenant-a/clean-app", "1.0.0");
  image.add_layer({{"/app/main.py", gc::to_bytes("print(\"serving\")\n")}});
  image.add_package({"flask", gc::Version(2, 0, 1), "pypi"});
  image.set_entrypoint("/app/main.py");
  return image;
}

struct TrajectorySample {
  double t_seconds = 0.0;
  std::size_t unhealthy = 0;
  std::size_t open_episodes = 0;
};

struct ArmResult {
  Arm arm = Arm::kChaosOnly;
  std::uint64_t seed = 0;
  int ops = 0;
  int ok_ops = 0;
  std::size_t failed_open = 0;       // across live + replayed deployments
  std::size_t skipped_gate_runs = 0; // remediation reports with skipped gates
  std::size_t vanished = 0;          // deployed pods kFailed/missing at end
  std::size_t episodes_total = 0;
  std::size_t episodes_open = 0;
  std::size_t episodes_resolved = 0;
  std::size_t episodes_escalated = 0;
  std::size_t replayed_deployments = 0;
  double mttr_seconds = 0.0;  // over closed episodes
  bool steady = false;        // no open episodes, no unhealthy targets
  std::vector<TrajectorySample> trajectory;

  double availability() const {
    return ops == 0 ? 1.0 : static_cast<double>(ok_ops) / static_cast<double>(ops);
  }
};

ArmResult run_arm(std::uint64_t seed, int fault_count, Arm arm, int storm_ticks,
                  int drain_ticks, bool sample_trajectory) {
  core::PlatformConfig config;
  config.seed = seed;
  config.resilience_policies = arm != Arm::kChaosOnly;
  core::GenioPlatform platform(config);
  auto publisher = genio::crypto::SigningKey::generate(platform.rng().bytes(32), 4);
  (void)platform.register_tenant("tenant-a", publisher.public_key());
  (void)platform.registry().push_signed(make_clean_image(), "tenant-a", publisher);
  (void)platform.boot_host();
  (void)platform.activate_pon();

  // One guaranteed node crash so every run exercises the workload-
  // rescheduling differentiator, then a seeded random storm on top.
  platform.chaos().schedule({.kind = gr::FaultKind::kNodeCrash,
                             .target = "olt-node-1",
                             .at = gc::SimTime::from_seconds(600),
                             .duration = gc::SimTime::from_seconds(120)});
  platform.chaos().schedule_random(fault_count, gc::SimTime::from_hours(1),
                                   gc::SimTime::from_seconds(60));

  core::DeploymentPipeline pipeline(&platform);
  core::SelfHealingSupervisor shs(&platform, &pipeline);

  ArmResult result;
  result.arm = arm;
  result.seed = seed;
  std::vector<std::string> deployed_pods;  // "ns/name"

  auto arm_tick = [&](int tick) {
    switch (arm) {
      case Arm::kChaosOnly:
        shs.observe();  // shared episode clock; no remediation
        break;
      case Arm::kPolicies:
        shs.observe();
        // Manual ops sweep: someone reschedules failed pods every ~5 min.
        if (tick % 10 == 9) (void)platform.cluster().reschedule_failed();
        break;
      case Arm::kSupervisor:
        shs.tick();
        break;
    }
  };
  auto sample = [&] {
    result.trajectory.push_back({platform.clock().now().seconds(),
                                 shs.monitor().unhealthy_count(),
                                 shs.ledger().open_count()});
  };

  // Storm phase: workload traffic while faults land.
  for (int tick = 0; tick < storm_ticks; ++tick) {
    platform.advance_time(kTick);

    ++result.ops;  // SDN northbound call
    const auto sdn_status =
        config.resilience_policies
            ? platform.onos_failover().api_call("svc-genio-nbi",
                                                "cert:svc-genio-nbi",
                                                gm::SdnCapability::kLogicalConfig)
            : platform.onos().api_call("svc-genio-nbi", "cert:svc-genio-nbi",
                                       gm::SdnCapability::kLogicalConfig);
    if (sdn_status.ok()) ++result.ok_ops;

    ++result.ops;  // deployment through the full gate pipeline
    const core::DeploymentRequest request{
        .tenant = "tenant-a",
        .image_reference = "registry.genio.io/tenant-a/clean-app:1.0.0",
        .app_name = "app-" + std::to_string(tick),
        .limits = gm::ResourceQuantity{0.1, 64}};
    const auto report = pipeline.deploy(request);
    result.failed_open += report.failed_open_count();
    if (report.deployed) {
      ++result.ok_ops;
      deployed_pods.push_back(report.pod_ref);
    } else if (arm == Arm::kSupervisor && report.blocked_by() == "pull") {
      // Registry outage outlasted the pull retry budget: park the request
      // for the registry playbook to replay through the full pipeline.
      shs.enqueue_deployment(request);
    }

    arm_tick(tick);
    if (sample_trajectory && tick % 10 == 0) sample();
  }

  // Drain phase: no new traffic; faults revert on schedule and whichever
  // repair story the arm has keeps running until the window closes.
  for (int tick = 0; tick < drain_ticks; ++tick) {
    platform.advance_time(kTick);
    arm_tick(storm_ticks + tick);
    if (sample_trajectory && tick % 10 == 0) sample();
  }
  if (sample_trajectory) sample();

  for (const auto& ref : deployed_pods) {
    const auto slash = ref.find('/');
    const auto* pod =
        platform.cluster().find_pod(ref.substr(0, slash), ref.substr(slash + 1));
    if (pod == nullptr || pod->phase == gm::PodPhase::kFailed) ++result.vanished;
  }
  for (const auto& replay : shs.remediation_reports()) {
    result.failed_open += replay.failed_open_count();
    if (!replay.skipped_gates().empty()) ++result.skipped_gate_runs;
  }
  result.replayed_deployments = shs.remediation_reports().size();
  const auto& ledger = shs.ledger();
  result.episodes_total = ledger.episodes().size();
  result.episodes_open = ledger.open_count();
  result.episodes_resolved = ledger.resolved_count();
  result.episodes_escalated = ledger.escalated_count();
  result.mttr_seconds = ledger.mean_time_to_repair_seconds();
  result.steady = shs.steady_state();
  return result;
}

/// Pooled MTTR across runs of one arm: total repair time / total repairs.
double aggregate_mttr(const std::vector<ArmResult>& runs, Arm arm,
                      std::size_t* resolved_out) {
  double weighted = 0.0;
  std::size_t resolved = 0;
  for (const auto& r : runs) {
    if (r.arm != arm) continue;
    weighted += r.mttr_seconds * static_cast<double>(r.episodes_resolved);
    resolved += r.episodes_resolved;
  }
  if (resolved_out != nullptr) *resolved_out = resolved;
  return resolved == 0 ? 0.0 : weighted / static_cast<double>(resolved);
}

void write_json(const genio::bench::Args& args, const std::vector<ArmResult>& runs,
                int fault_count, int storm_ticks, int drain_ticks, bool invariants_hold) {
  genio::bench::Json json(args.out, "self_healing", args.smoke);
  json.field("faults_per_window", fault_count).field("storm_ticks", storm_ticks);
  json.field("drain_ticks", drain_ticks).field("tick_seconds", kTick.seconds(), 0);
  json.field("invariants_hold", invariants_hold);
  json.object("arms");
  for (const Arm arm : {Arm::kChaosOnly, Arm::kPolicies, Arm::kSupervisor}) {
    std::size_t resolved = 0;
    const double mttr = aggregate_mttr(runs, arm, &resolved);
    json.object(arm_name(arm))
        .field("aggregate_mttr_seconds", mttr, 1).field("aggregate_resolved", resolved)
        .array("runs");
    for (const auto& r : runs) {
      if (r.arm != arm) continue;
      json.object().field("seed", r.seed).field("availability", r.availability(), 4)
          .field("mttr_seconds", r.mttr_seconds, 1).field("episodes_total", r.episodes_total)
          .field("episodes_resolved", r.episodes_resolved).field("episodes_open", r.episodes_open)
          .field("episodes_escalated", r.episodes_escalated).field("failed_open", r.failed_open)
          .field("vanished", r.vanished).field("replayed_deployments", r.replayed_deployments)
          .field("steady_state", r.steady);
      if (!r.trajectory.empty()) {
        json.array("trajectory");
        for (const auto& sample : r.trajectory) {
          json.object().field("t", sample.t_seconds, 0).field("unhealthy", sample.unhealthy)
              .field("open", sample.open_episodes).close();
        }
        json.close();
      }
      json.close();
    }
    json.close().close();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_selfheal.json");
  const bool smoke = args.smoke;

  const int fault_count = 12;  // baseline rate: ~12 random faults / h
  const int storm_ticks = smoke ? 60 : 120;
  const int drain_ticks = smoke ? 60 : 120;
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};

  std::printf("=== self-healing sweep: 3 arms x %zu seeds, %d+%d ticks, "
              "%d faults/h + 1 node crash ===\n\n",
              seeds.size(), storm_ticks, drain_ticks, fault_count);

  gc::Table table({"arm", "seed", "avail %", "MTTR s", "episodes", "resolved",
                   "open", "escal", "failed-open", "vanished", "replayed",
                   "steady"});
  std::vector<ArmResult> runs;
  for (const auto seed : seeds) {
    for (const Arm arm : {Arm::kChaosOnly, Arm::kPolicies, Arm::kSupervisor}) {
      ArmResult r = run_arm(seed, fault_count, arm, storm_ticks, drain_ticks,
                            /*sample_trajectory=*/seed == seeds.front());
      table.add_row({arm_name(arm), std::to_string(seed),
                     gc::format_double(100.0 * r.availability(), 2),
                     gc::format_double(r.mttr_seconds, 1),
                     std::to_string(r.episodes_total),
                     std::to_string(r.episodes_resolved),
                     std::to_string(r.episodes_open),
                     std::to_string(r.episodes_escalated),
                     std::to_string(r.failed_open), std::to_string(r.vanished),
                     std::to_string(r.replayed_deployments),
                     r.steady ? "yes" : "NO"});
      runs.push_back(std::move(r));
    }
  }
  std::printf("%s\n", table.render().c_str());

  bool supervisor_always_steady = true;
  bool no_gate_bypass = true;
  bool chaos_showed_damage = false;
  for (const auto& r : runs) {
    switch (r.arm) {
      case Arm::kChaosOnly:
        chaos_showed_damage |=
            r.failed_open > 0 || r.vanished > 0 || !r.steady;
        break;
      case Arm::kPolicies:
        no_gate_bypass &= r.failed_open == 0 && r.skipped_gate_runs == 0;
        break;
      case Arm::kSupervisor:
        supervisor_always_steady &= r.steady;
        no_gate_bypass &= r.failed_open == 0 && r.skipped_gate_runs == 0;
        break;
    }
  }
  std::size_t sup_resolved = 0;
  std::size_t pol_resolved = 0;
  const double sup_mttr = aggregate_mttr(runs, Arm::kSupervisor, &sup_resolved);
  const double pol_mttr = aggregate_mttr(runs, Arm::kPolicies, &pol_resolved);
  // Policies-only may leave episodes open forever (no re-auth, no re-ingest);
  // an empty resolved set means its effective MTTR is unbounded.
  const bool supervisor_faster =
      sup_resolved > 0 && (pol_resolved == 0 || sup_mttr < pol_mttr);

  std::printf("aggregate MTTR: supervisor %.1fs over %zu repairs vs "
              "policies-only %.1fs over %zu repairs\n\n",
              sup_mttr, sup_resolved, pol_mttr, pol_resolved);

  genio::bench::Gate gate({genio::bench::kChecklist});
  gate.check(supervisor_always_steady,
             "supervisor arm converges to steady state after every storm");
  gate.check(supervisor_faster,
             "MTTR(supervisor) < MTTR(policies-only) at the baseline fault rate");
  gate.check(no_gate_bypass,
             "zero gate bypasses during remediation (no fail-open, no skipped gate)");
  gate.check(chaos_showed_damage, "chaos-only arm shows the damage the loop repairs");
  std::printf("\n%s\n", gate.ok() ? "all invariants hold"
                                  : "INVARIANT VIOLATION — see rows above");
  write_json(args, runs, fault_count, storm_ticks, drain_ticks, gate.ok());
  return gate.exit_code();
}
