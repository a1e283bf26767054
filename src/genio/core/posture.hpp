// Security posture evaluation: one consolidated report over a running
// platform — host hardening index (M1/M2/M8), boot/attestation state
// (M5), PON protection state (M3/M4), cluster misconfiguration findings
// (M11), active-probe results, pipeline gate status, and the PEACH
// tenant-isolation assessment (M17). The CE-marking/CRA-alignment view
// the paper says drove the platform design.
#pragma once

#include "genio/appsec/peach.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/platform.hpp"
#include "genio/middleware/checkers.hpp"
#include "genio/middleware/hunter.hpp"
#include "genio/resilience/supervisor.hpp"

namespace genio::core {

struct PostureReport {
  // Host.
  double hardening_index = 0.0;  // 0-100
  std::size_t host_findings = 0;
  bool boot_verified = false;
  // PON.
  bool pon_encrypted = false;
  bool pon_authenticated = false;
  int onus_operational = 0;
  // Middleware.
  std::size_t cluster_findings = 0;
  std::size_t hunter_findings = 0;
  // Application.
  int pipeline_gates_active = 0;  // of 6 (signature, sca, sast, secrets, malware, sandbox)
  bool sast_taint_mode = false;   // informational: taint dataflow pass active
  // Tenancy.
  appsec::PeachReport peach;

  /// A mitigation currently running on a fallback (stale feed snapshot,
  /// standby controller, rescheduled pods) or knocked out by an active
  /// fault. Empty in a healthy platform; every entry is a reason the
  /// posture numbers above carry less assurance than they normally would.
  struct DegradedMitigation {
    std::string component;  // "vuln feed", "node olt-node-1", "sdn onos"
    std::string mode;       // human-readable degradation description
  };
  std::vector<DegradedMitigation> degraded_mitigations;
  bool degraded() const { return !degraded_mitigations.empty(); }

  /// Self-healing summary from the supervisor's RecoveryLedger (absent
  /// when the platform runs without a supervision loop). Informational —
  /// like degradation flags, it never moves the overall score.
  struct SelfHealing {
    bool supervised = false;
    std::size_t episodes_total = 0;
    std::size_t episodes_open = 0;
    std::size_t episodes_resolved = 0;
    std::size_t episodes_escalated = 0;
    double mttr_seconds = 0.0;  // mean detect->repair over closed episodes
  };
  SelfHealing self_healing;

  /// Admission scan-cache health (absent when no pipeline was passed).
  /// The invalidation split matters operationally: full invalidations are
  /// whole-cache dumps that send every tenant back down the cold path at
  /// once, targeted ones are surgical per-package drops.
  struct ScanCacheView {
    bool attached = false;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations_full = 0;
    std::uint64_t invalidations_targeted = 0;
    std::uint64_t revision_rekeys = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  ScanCacheView scan_cache;

  /// Aggregate score 0-100 (weighted sections).
  double overall_score() const;
  std::string grade() const;  // "A".."F"
};

/// Evaluate the platform's current posture. `boot_report` should come from
/// the most recent boot_host() call. Pass the supervision loop's
/// RecoveryLedger (when one is running) to fold the self-healing summary
/// — episode counts, open escalations, MTTR — into the report, and the
/// deployment pipeline to surface its scan-cache health (hit rate and the
/// full/targeted invalidation split). Both are informational.
PostureReport evaluate_posture(GenioPlatform& platform,
                               const os::BootReport& boot_report,
                               const resilience::RecoveryLedger* ledger = nullptr,
                               const DeploymentPipeline* pipeline = nullptr);

/// Render the report as a text block for operators.
std::string render_posture(const PostureReport& report);

}  // namespace genio::core
