// Platform wiring for the self-healing supervision loop: binds the
// substrate-agnostic resilience::Supervisor to a concrete GenioPlatform.
// Health targets cover every substrate (node/pod liveness, SDN primary +
// failover breaker, PON feeder/medium/per-ONU attachment, registry and
// vuln-feed reachability, TPM transients), fed by both periodic probes and
// EventBus subscriptions (chaos injections and breaker flips mark targets
// suspect so the next tick probes immediately). Remediation playbooks:
//   workloads   reschedule kFailed pods onto healthy nodes (RescheduleReport)
//   sdn-onos    failback probe through the failover shim so the half-open
//               breaker steers traffic back to a healed primary
//   onu-<sn>    re-run the M4 mutual-auth handshake once the churned device
//               reattaches (fresh session keys; reattachment is not trusted)
//   registry    replay deployments that failed during the outage through
//               the FULL pipeline — every gate, never a bypass; each verdict
//               is recorded for audit
//   cve-feed    re-run ingest and refresh the last-good snapshot
//   tpm         burn pending transient failures on a debug PCR, then
//               re-verify attestation with a fresh quote
//   pon-feeder / pon-medium / sdn-voltha: wait-only (substrate heals)
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "genio/core/pipeline.hpp"
#include "genio/core/platform.hpp"
#include "genio/resilience/supervisor.hpp"

namespace genio::core {

class SelfHealingSupervisor {
 public:
  /// Both pointers must outlive the supervisor.
  SelfHealingSupervisor(GenioPlatform* platform, DeploymentPipeline* pipeline);
  ~SelfHealingSupervisor();

  SelfHealingSupervisor(const SelfHealingSupervisor&) = delete;
  SelfHealingSupervisor& operator=(const SelfHealingSupervisor&) = delete;

  /// Detection only: probe, open/resolve episodes. Safe in every posture
  /// (the bench's chaos-only arm observes without ever remediating).
  void observe();
  /// Remediation: run playbooks for open episodes.
  void reconcile();
  /// One full MAPE-K cycle.
  void tick();

  /// Queue a deployment that failed while the registry was down; the
  /// registry playbook replays it through the full pipeline on heal.
  void enqueue_deployment(const DeploymentRequest& request);
  std::size_t queued_deployments() const { return replay_queue_.size(); }
  std::uint64_t total_enqueued() const { return total_enqueued_; }

  /// Pipeline verdict for every replayed deployment — the gate-bypass
  /// audit trail (property: no kFailedOpen, no skipped mandatory gate).
  const std::vector<PipelineReport>& remediation_reports() const {
    return remediation_reports_;
  }

  bool steady_state() const {
    return supervisor_.steady_state() && replay_queue_.empty();
  }

  const resilience::RecoveryLedger& ledger() const { return supervisor_.ledger(); }
  const resilience::HealthMonitor& monitor() const { return monitor_; }
  resilience::Supervisor& supervisor() { return supervisor_; }

 private:
  void add_targets();
  void add_playbooks();
  void subscribe_signals();
  /// Chaos/breaker event target -> health-monitor target name ("" = none).
  std::vector<std::string> monitor_targets_for(const std::string& chaos_target) const;
  /// Replay parked deployments through the full pipeline while the registry
  /// serves; a fresh pull failure re-parks the request. Returns the ledger
  /// action lines.
  std::vector<std::string> drain_replay_queue();

  GenioPlatform* platform_;
  DeploymentPipeline* pipeline_;
  resilience::HealthMonitor monitor_;
  resilience::Supervisor supervisor_;

  std::deque<DeploymentRequest> replay_queue_;
  std::uint64_t total_enqueued_ = 0;
  std::vector<PipelineReport> remediation_reports_;
  /// Per-serial: false between a churn injection and the re-auth handshake
  /// (reattachment alone must not resolve the episode).
  std::map<std::string, bool> onu_session_fresh_;
  /// False between a feed outage injection and the post-heal re-ingest.
  bool feed_snapshot_fresh_ = true;
  std::vector<int> subscriptions_;
};

}  // namespace genio::core
