#include "genio/core/posture.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/hardening/auditor.hpp"

namespace genio::core {

double PostureReport::overall_score() const {
  double score = 0.0;
  // Host (25): hardening index scaled.
  score += 0.25 * hardening_index;
  // Boot (10).
  score += boot_verified ? 10.0 : 0.0;
  // PON (20): encryption + authentication.
  score += pon_encrypted ? 10.0 : 0.0;
  score += pon_authenticated ? 10.0 : 0.0;
  // Middleware (20): penalize findings.
  const double mw = 20.0 - 2.0 * static_cast<double>(cluster_findings + hunter_findings);
  score += mw > 0 ? mw : 0.0;
  // Pipeline gates (15): 2.5 points each of the six.
  score += 2.5 * pipeline_gates_active;
  // Tenancy (10): PEACH mean.
  score += 10.0 * peach.mean_score();
  return score;
}

std::string PostureReport::grade() const {
  const double score = overall_score();
  if (score >= 90) return "A";
  if (score >= 80) return "B";
  if (score >= 65) return "C";
  if (score >= 50) return "D";
  return "F";
}

PostureReport evaluate_posture(GenioPlatform& platform,
                               const os::BootReport& boot_report,
                               const resilience::RecoveryLedger* ledger,
                               const DeploymentPipeline* pipeline) {
  PostureReport report;

  hardening::HostAuditor auditor;
  const auto audit = auditor.audit(platform.host());
  report.hardening_index = audit.hardening_index();
  report.host_findings = audit.total_findings();
  report.boot_verified = boot_report.booted && platform.config().secure_boot;

  report.pon_encrypted = platform.config().pon_encryption;
  report.pon_authenticated = platform.config().node_authentication;
  for (const auto& onu : platform.onus()) {
    report.onus_operational += onu->state() == pon::OnuState::kOperational ? 1 : 0;
  }

  const std::vector<middleware::CheckerReport> checker_reports = {
      middleware::make_kube_bench().run(platform.cluster()),
      middleware::make_kubescape().run(platform.cluster()),
      middleware::make_kubesec().run(platform.cluster())};
  report.cluster_findings = middleware::union_findings(checker_reports).size();
  report.hunter_findings = middleware::hunt(platform.cluster()).findings.size();

  const auto& config = platform.config();
  report.pipeline_gates_active =
      (config.require_image_signature ? 1 : 0) + (config.sca_gate ? 1 : 0) +
      (config.sast_gate ? 1 : 0) + (config.secret_gate ? 1 : 0) +
      (config.malware_gate ? 1 : 0) + (config.sandbox_enabled ? 1 : 0);
  report.sast_taint_mode = config.sast_gate;

  // PEACH assessment derived from the running configuration.
  appsec::PeachAssessment tenant_api{
      "tenant REST API",
      /*privilege=*/config.least_privilege_rbac ? 2 : 0,
      /*encryption=*/config.pon_encryption ? 2 : 0,
      /*authentication=*/config.anonymous_api ? 0 : 2,
      /*connectivity=*/config.hardened_admission ? 2 : 1,
      /*hygiene=*/config.hardened_admission ? 2 : 1,
      /*complexity=*/1};
  appsec::PeachAssessment runtime{
      "container runtime (soft isolation)",
      /*privilege=*/config.hardened_admission ? 2 : 0,
      /*encryption=*/1,
      /*authentication=*/2,
      /*connectivity=*/config.hardened_admission ? 1 : 0,
      /*hygiene=*/config.sandbox_enabled ? 2 : 0,
      /*complexity=*/2};
  appsec::PeachAssessment pon_path{
      "PON data path",
      /*privilege=*/2,
      /*encryption=*/config.pon_encryption ? 2 : 0,
      /*authentication=*/config.node_authentication ? 2 : 0,
      /*connectivity=*/config.pon_encryption ? 2 : 0,  // broadcast physics!
      /*hygiene=*/2,
      /*complexity=*/1};
  report.peach.assessments = {tenant_api, runtime, pon_path};

  // Degraded-mitigation sweep: every security dependency currently down or
  // serving from a fallback gets flagged, so an operator reading the
  // report knows which of the numbers above to distrust.
  auto flag = [&report](std::string component, std::string mode) {
    report.degraded_mitigations.push_back({std::move(component), std::move(mode)});
  };
  if (!platform.odn().feeder_up()) {
    flag("PON feeder", "fiber down — all ONU traffic dropped");
  }
  if (platform.odn().bit_error_rate() > 0.0) {
    flag("PON medium", "bit-error burst active (BER " +
                           common::format_double(platform.odn().bit_error_rate(), 3) +
                           ")");
  }
  for (const auto& node : platform.cluster().nodes()) {
    if (node.health != middleware::NodeHealth::kReady) {
      flag("node " + node.name, middleware::to_string(node.health));
    }
  }
  if (const std::size_t failed = platform.cluster().failed_pod_count(); failed > 0) {
    flag("workloads", std::to_string(failed) + " pod(s) failed awaiting reschedule");
  }
  if (!platform.onos().available()) {
    flag("sdn onos", "primary down — standby serving via circuit breaker");
  }
  if (!platform.voltha().available()) {
    flag("sdn voltha", "controller unreachable");
  }
  if (!platform.registry().available()) {
    flag("image registry", "unreachable — pulls retried under backoff");
  }
  if (!platform.feed_service().available()) {
    const double age = platform.feed_service()
                           .snapshot_age(platform.clock().now())
                           .hours();
    flag("vuln feed", "unreachable — SCA serving last-good snapshot, age " +
                          common::format_double(age, 1) + "h");
  }
  if (platform.tpm().pending_transient_failures() > 0) {
    flag("tpm", std::to_string(platform.tpm().pending_transient_failures()) +
                    " transient failure(s) pending");
  }

  if (pipeline != nullptr) {
    const ScanCacheStats cache = pipeline->scan_cache().stats();
    report.scan_cache.attached = true;
    report.scan_cache.hits = cache.hits;
    report.scan_cache.misses = cache.misses;
    report.scan_cache.invalidations_full = cache.invalidations_full;
    report.scan_cache.invalidations_targeted = cache.invalidations_targeted;
    report.scan_cache.revision_rekeys = cache.revision_rekeys;
  }

  if (ledger != nullptr) {
    report.self_healing.supervised = true;
    report.self_healing.episodes_total = ledger->episodes().size();
    report.self_healing.episodes_open = ledger->open_count();
    report.self_healing.episodes_resolved = ledger->resolved_count();
    report.self_healing.episodes_escalated = ledger->escalated_count();
    report.self_healing.mttr_seconds = ledger->mean_time_to_repair_seconds();
    std::size_t escalated_open = 0;
    for (const auto& episode : ledger->episodes()) {
      if (episode.outcome == resilience::EpisodeOutcome::kOpen && episode.escalated) {
        ++escalated_open;
      }
    }
    if (escalated_open > 0) {
      flag("self-healing", std::to_string(escalated_open) +
                               " episode(s) past the remediation budget, "
                               "escalated to operator");
    }
  }
  return report;
}

std::string render_posture(const PostureReport& report) {
  common::Table table({"section", "status"});
  table.add_row({"host hardening index",
                 common::format_double(report.hardening_index, 1) + "/100 (" +
                     std::to_string(report.host_findings) + " findings)"});
  table.add_row({"verified boot", report.boot_verified ? "yes" : "NO"});
  table.add_row({"PON data path",
                 std::string(report.pon_encrypted ? "encrypted" : "PLAINTEXT") + ", " +
                     (report.pon_authenticated ? "authenticated" : "UNAUTHENTICATED")});
  table.add_row({"ONUs operational", std::to_string(report.onus_operational)});
  table.add_row({"cluster misconfigurations", std::to_string(report.cluster_findings)});
  table.add_row({"active-probe findings", std::to_string(report.hunter_findings)});
  table.add_row({"pipeline gates active",
                 std::to_string(report.pipeline_gates_active) + "/6"});
  table.add_row({"SAST analysis mode", report.sast_taint_mode
                                           ? "flow-sensitive taint + rules"
                                           : "legacy rules only"});
  table.add_row({"PEACH isolation",
                 common::format_double(report.peach.mean_score(), 2) + " (" +
                     appsec::to_string(report.peach.overall_tier()) + ")"});
  if (report.scan_cache.attached) {
    const auto& sc = report.scan_cache;
    table.add_row(
        {"admission scan cache",
         common::format_double(100.0 * sc.hit_rate(), 1) + "% hit rate, " +
             "invalidations " + std::to_string(sc.invalidations_full) + " full / " +
             std::to_string(sc.invalidations_targeted) + " targeted (" +
             std::to_string(sc.revision_rekeys) + " re-keyed)"});
  }
  if (report.self_healing.supervised) {
    const auto& sh = report.self_healing;
    table.add_row(
        {"self-healing",
         std::to_string(sh.episodes_resolved) + "/" +
             std::to_string(sh.episodes_total) + " episodes repaired (" +
             std::to_string(sh.episodes_open) + " open, " +
             std::to_string(sh.episodes_escalated) + " escalated), MTTR " +
             common::format_double(sh.mttr_seconds, 1) + "s"});
  }
  if (report.degraded_mitigations.empty()) {
    table.add_row({"degraded mitigations", "none"});
  } else {
    for (const auto& d : report.degraded_mitigations) {
      table.add_row({"DEGRADED: " + d.component, d.mode});
    }
  }
  table.add_row({"OVERALL", common::format_double(report.overall_score(), 1) +
                                "/100 — grade " + report.grade()});
  return table.render();
}

}  // namespace genio::core
