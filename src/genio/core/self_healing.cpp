#include "genio/core/self_healing.hpp"

#include "genio/common/strings.hpp"

namespace genio::core {

namespace {

using resilience::Playbook;
using resilience::ProbeConfig;
using resilience::RemediationOutcome;

// Debug PCR (real TPMs reserve 16 for debug): burning transient failures
// here never perturbs the measured-boot registers the golden values cover.
constexpr std::size_t kScratchPcr = 16;

// Binary physical signals (a fiber is up or it is not) flag on the first
// failed probe; service reachability tolerates one lost probe.
ProbeConfig physical_probe() {
  ProbeConfig config;
  config.down_after = 1;
  return config;
}

ProbeConfig service_probe() {
  ProbeConfig config;
  config.down_after = 2;
  return config;
}

}  // namespace

SelfHealingSupervisor::SelfHealingSupervisor(GenioPlatform* platform,
                                             DeploymentPipeline* pipeline)
    : platform_(platform),
      pipeline_(pipeline),
      monitor_(&platform->clock(), &platform->bus()),
      supervisor_(&platform->clock(), &platform->bus(), &monitor_) {
  for (const auto& onu : platform_->onus()) {
    onu_session_fresh_[onu->serial()] = true;
  }
  add_targets();
  add_playbooks();
  subscribe_signals();
}

SelfHealingSupervisor::~SelfHealingSupervisor() {
  for (const int id : subscriptions_) {
    platform_->bus().unsubscribe(id);
  }
}

void SelfHealingSupervisor::add_targets() {
  monitor_.add_target(
      "workloads",
      [this] { return platform_->cluster().failed_pod_count() == 0; },
      physical_probe());
  monitor_.add_target(
      "sdn-onos", [this] { return platform_->onos().available(); }, service_probe());
  monitor_.add_target(
      "sdn-voltha", [this] { return platform_->voltha().available(); },
      service_probe());
  monitor_.add_target(
      "pon-feeder", [this] { return platform_->odn().feeder_up(); },
      physical_probe());
  monitor_.add_target(
      "pon-medium", [this] { return platform_->odn().bit_error_rate() == 0.0; },
      physical_probe());
  for (const auto& onu : platform_->onus()) {
    const pon::Onu* device = onu.get();
    monitor_.add_target(
        "onu-" + device->serial(),
        [this, device] { return platform_->odn().attached(device); },
        physical_probe());
  }
  monitor_.add_target(
      "registry", [this] { return platform_->registry().available(); },
      service_probe());
  monitor_.add_target(
      "cve-feed", [this] { return platform_->feed_service().available(); },
      service_probe());
  monitor_.add_target(
      "tpm", [this] { return platform_->tpm().pending_transient_failures() == 0; },
      physical_probe());
}

void SelfHealingSupervisor::add_playbooks() {
  // Workloads: place every kFailed pod back onto a healthy node. Stranded
  // pods keep the episode open (and eventually escalate it) instead of
  // being silently dropped.
  supervisor_.set_playbook(
      "workloads",
      {.name = "reschedule-failed-pods",
       .remediate =
           [this]() -> RemediationOutcome {
             if (platform_->cluster().failed_pod_count() == 0) {
               return {.attempted = false};
             }
             const auto report = platform_->cluster().reschedule_failed();
             RemediationOutcome outcome;
             outcome.actions.push_back("reschedule sweep: " + report.summary());
             if (!report.fully_recovered()) {
               outcome.status = common::unavailable(
                   std::to_string(report.still_failed()) +
                   " pod(s) unschedulable: " + report.stranded.front().reason);
             }
             return outcome;
           },
       .retry_gap = common::SimTime::from_seconds(30)});

  // SDN: a probe through the failover shim serves traffic either way and,
  // once the primary heals, closes the half-open breaker — failing calls
  // back to the primary instead of pinning them on the standby.
  supervisor_.set_playbook(
      "sdn-onos",
      {.name = "sdn-failback-probe",
       .remediate =
           [this]() -> RemediationOutcome {
             if (!platform_->config().resilience_policies) {
               return {.attempted = false};  // legacy posture: no shim to steer
             }
             auto& failover = platform_->onos_failover();
             const auto before = failover.breaker().state();
             const bool rbac = platform_->config().least_privilege_rbac;
             const auto status = failover.api_call(
                 rbac ? "svc-genio-nbi" : "admin",
                 rbac ? "cert:svc-genio-nbi" : "admin",
                 middleware::SdnCapability::kLogicalConfig);
             RemediationOutcome outcome;
             outcome.status = status;
             outcome.actions.push_back(
                 "failback probe via failover shim: breaker " +
                 resilience::to_string(before) + " -> " +
                 resilience::to_string(failover.breaker().state()));
             return outcome;
           },
       .verify =
           [this] {
             if (!platform_->onos().available()) return false;
             if (!platform_->config().resilience_policies) return true;
             return platform_->onos_failover().breaker().state() ==
                    resilience::BreakerState::kClosed;
           }});

  // ONUs: wait out the churn, then re-run the M4 handshake — a device that
  // vanished from the splitter tree re-earns its session keys.
  for (const auto& onu : platform_->onus()) {
    const pon::Onu* device = onu.get();
    const std::string serial = device->serial();
    supervisor_.set_playbook(
        "onu-" + serial,
        {.name = "onu-reregister",
         .remediate =
             [this, device, serial]() -> RemediationOutcome {
               if (!platform_->odn().attached(device)) {
                 return {.attempted = false};  // still off the tree
               }
               RemediationOutcome outcome;
               if (platform_->config().node_authentication) {
                 outcome.status = platform_->reauthenticate_onu(serial);
                 if (outcome.status.ok()) {
                   onu_session_fresh_[serial] = true;
                   outcome.actions.push_back("re-ran M4 mutual auth for " + serial +
                                             " (fresh session keys)");
                 } else {
                   outcome.actions.push_back(
                       "M4 re-auth for " + serial +
                       " failed: " + outcome.status.error().message());
                 }
               } else {
                 onu_session_fresh_[serial] = true;
                 outcome.actions.push_back(serial +
                                           " reattached (node auth disabled)");
               }
               return outcome;
             },
         .verify =
             [this, device, serial] {
               if (!platform_->odn().attached(device)) return false;
               return onu_session_fresh_.at(serial);
             }});
  }

  // Registry: once reachable again, replay every deployment that failed
  // during the outage through the FULL pipeline — all gates, no shortcuts;
  // each verdict lands in remediation_reports_ for audit.
  supervisor_.set_playbook(
      "registry",
      {.name = "replay-failed-deployments",
       .remediate =
           [this]() -> RemediationOutcome {
             if (!platform_->registry().available() || replay_queue_.empty()) {
               return {.attempted = false};
             }
             RemediationOutcome outcome;
             outcome.actions = drain_replay_queue();
             if (!replay_queue_.empty()) {
               outcome.status = common::unavailable(
                   std::to_string(replay_queue_.size()) +
                   " deployment(s) still parked (registry dropped mid-replay)");
             }
             return outcome;
           },
       .verify =
           [this] {
             return platform_->registry().available() && replay_queue_.empty();
           }});

  // Vuln feed: a heal alone leaves the SCA snapshot stale — re-run the
  // ingest so the next degrade (if any) starts from a fresh last-good.
  supervisor_.set_playbook(
      "cve-feed",
      {.name = "refresh-feed-snapshot",
       .remediate =
           [this]() -> RemediationOutcome {
             if (!platform_->feed_service().available()) {
               return {.attempted = false};
             }
             platform_->feed_service().mark_refreshed(platform_->clock().now());
             feed_snapshot_fresh_ = true;
             RemediationOutcome outcome;
             outcome.actions.push_back(
                 "re-ran feed ingest; last-good snapshot refreshed");
             return outcome;
           },
       .verify =
           [this] {
             return platform_->feed_service().available() && feed_snapshot_fresh_;
           }});

  // TPM: burn the injected transients on the scratch PCR, then prove the
  // attestation path with a fresh verified quote.
  supervisor_.set_playbook(
      "tpm", {.name = "tpm-reattest",
              .remediate = [this]() -> RemediationOutcome {
                auto& tpm = platform_->tpm();
                if (tpm.pending_transient_failures() == 0) {
                  return {.attempted = false};
                }
                RemediationOutcome outcome;
                int burned = 0;
                while (tpm.pending_transient_failures() > 0 && burned < 4) {
                  (void)tpm.extend(kScratchPcr, common::to_bytes("selfheal-probe"));
                  ++burned;
                }
                outcome.actions.push_back("retried " + std::to_string(burned) +
                                          " TPM op(s) against transient failures");
                if (tpm.pending_transient_failures() > 0) {
                  outcome.status = common::unavailable(
                      std::to_string(tpm.pending_transient_failures()) +
                      " TPM transient failure(s) still pending");
                  return outcome;
                }
                const auto quote =
                    tpm.quote({0, 1, 2, 3, 4, 5, 6, 7}, platform_->rng().bytes(8));
                outcome.actions.push_back(
                    std::string("re-ran attestation quote: ") +
                    (tpm.verify_quote(quote) ? "verified" : "FAILED"));
                if (!tpm.verify_quote(quote)) {
                  outcome.status = common::internal_error("post-recovery quote failed");
                }
                return outcome;
              }});
  // pon-feeder, pon-medium, sdn-voltha stay wait-only: their substrate
  // heals (chaos revert) and no control-plane action accelerates it.
}

std::vector<std::string> SelfHealingSupervisor::monitor_targets_for(
    const std::string& chaos_target) const {
  if (chaos_target == "odn") return {"pon-feeder", "pon-medium"};
  if (chaos_target.rfind("GNIO", 0) == 0) return {"onu-" + chaos_target};
  if (chaos_target == "onos") return {"sdn-onos"};
  if (chaos_target == "voltha") return {"sdn-voltha"};
  if (chaos_target == "registry") return {"registry"};
  if (chaos_target == "cve-feed") return {"cve-feed"};
  if (chaos_target == "tpm") return {"tpm"};
  if (chaos_target.rfind("olt-node", 0) == 0) return {"workloads"};
  return {};
}

void SelfHealingSupervisor::subscribe_signals() {
  subscriptions_.push_back(platform_->bus().subscribe(
      "chaos.fault.", [this](const common::Event& event) {
        const std::string target = event.attr("target");
        for (const auto& name : monitor_targets_for(target)) {
          monitor_.mark_suspect(name);
        }
        if (event.topic == "chaos.fault.injected") {
          if (target.rfind("GNIO", 0) == 0) onu_session_fresh_[target] = false;
          if (target == "cve-feed") feed_snapshot_fresh_ = false;
        }
      }));
  subscriptions_.push_back(platform_->bus().subscribe(
      "resilience.breaker.",
      [this](const common::Event&) { monitor_.mark_suspect("sdn-onos"); }));
}

void SelfHealingSupervisor::observe() { supervisor_.observe(); }

void SelfHealingSupervisor::reconcile() {
  supervisor_.reconcile();
  // A registry blip can defeat the pull retry budget yet stay under the
  // monitor's hysteresis (never two failed probes in a row), so parked
  // deployments may have no open episode to replay them. Drain the queue
  // opportunistically whenever the registry is serving and no episode
  // already owns the replay.
  if (!replay_queue_.empty() && platform_->registry().available()) {
    bool episode_open = false;
    for (const auto& episode : supervisor_.ledger().episodes()) {
      if (episode.target == "registry" &&
          episode.outcome == resilience::EpisodeOutcome::kOpen) {
        episode_open = true;
        break;
      }
    }
    if (!episode_open) (void)drain_replay_queue();
  }
}

void SelfHealingSupervisor::tick() {
  observe();
  reconcile();
}

void SelfHealingSupervisor::enqueue_deployment(const DeploymentRequest& request) {
  replay_queue_.push_back(request);
  ++total_enqueued_;
  // Evidence of registry trouble even if the monitor has not seen two
  // failed probes yet.
  monitor_.mark_suspect("registry");
}

std::vector<std::string> SelfHealingSupervisor::drain_replay_queue() {
  std::vector<std::string> actions;
  while (!replay_queue_.empty()) {
    const DeploymentRequest request = replay_queue_.front();
    replay_queue_.pop_front();
    PipelineReport report = pipeline_->deploy(request);
    if (!report.deployed && report.blocked_by() == "pull") {
      // The registry dropped again mid-replay: park it for the next pass
      // (this attempt resurrected nothing, so no verdict is recorded).
      replay_queue_.push_front(request);
      actions.push_back("replay of " + request.image_reference +
                        " hit a fresh registry outage; re-parked");
      break;
    }
    actions.push_back("re-pulled " + request.image_reference + " through " +
                      std::to_string(report.stages.size()) + " gates: " +
                      (report.deployed ? "deployed as " + report.pod_ref
                                       : "blocked by " + report.blocked_by()));
    remediation_reports_.push_back(std::move(report));
  }
  return actions;
}

}  // namespace genio::core
