#include "genio/appsec/falco.hpp"

#include "genio/common/strings.hpp"

namespace genio::appsec {

std::string to_string(AlertPriority priority) {
  switch (priority) {
    case AlertPriority::kNotice: return "notice";
    case AlertPriority::kWarning: return "warning";
    case AlertPriority::kCritical: return "critical";
  }
  return "unknown";
}

bool FalcoMonitor::add_exception(const std::string& rule_name,
                                 const std::string& workload_glob) {
  for (auto& rule : rules_) {
    if (rule.name == rule_name) {
      rule.exception_workloads.push_back(workload_glob);
      return true;
    }
  }
  return false;
}

std::vector<FalcoAlert> FalcoMonitor::process(const SyscallEvent& event) {
  std::vector<FalcoAlert> alerts;
  ++stats_.events_processed;
  for (const auto& rule : rules_) {
    ++stats_.rule_evaluations;
    bool excepted = false;
    for (const auto& glob : rule.exception_workloads) {
      if (common::glob_match(glob, event.workload)) {
        excepted = true;
        break;
      }
    }
    if (excepted) continue;
    if (rule.condition(event)) {
      alerts.push_back({rule.name, rule.priority, event});
      ++stats_.alerts_emitted;
    }
  }
  return alerts;
}

std::vector<FalcoAlert> FalcoMonitor::process_trace(
    const std::vector<SyscallEvent>& trace) {
  std::vector<FalcoAlert> out;
  for (const auto& event : trace) {
    auto alerts = process(event);
    out.insert(out.end(), alerts.begin(), alerts.end());
  }
  return out;
}

FalcoMonitor make_default_falco_monitor() {
  FalcoMonitor monitor;
  monitor.add_rule(
      {.name = "shell_in_container",
       .priority = AlertPriority::kWarning,
       .condition = [](const SyscallEvent& e) {
         return e.kind == SyscallKind::kExec &&
                (common::ends_with(e.arg, "/sh") || common::ends_with(e.arg, "/bash"));
       }});
  monitor.add_rule(
      {.name = "read_sensitive_file",
       .priority = AlertPriority::kCritical,
       .condition = [](const SyscallEvent& e) {
         return e.kind == SyscallKind::kOpen &&
                (common::starts_with(e.arg, "/etc/shadow") ||
                 common::contains(e.arg, "/.ssh/") ||
                 common::starts_with(e.arg, "/etc/kubernetes/pki"));
       }});
  monitor.add_rule(
      {.name = "outbound_to_unexpected_port",
       .priority = AlertPriority::kWarning,
       .condition = [](const SyscallEvent& e) {
         if (e.kind != SyscallKind::kConnect) return false;
         // Alert on raw high ports typical of C2/miner pools.
         return common::ends_with(e.arg, ":4444") || common::ends_with(e.arg, ":1337");
       }});
  monitor.add_rule(
      {.name = "privilege_escalation_setuid",
       .priority = AlertPriority::kCritical,
       .condition = [](const SyscallEvent& e) {
         return e.kind == SyscallKind::kSetuid && e.arg == "0";
       }});
  monitor.add_rule(
      {.name = "kernel_module_load",
       .priority = AlertPriority::kCritical,
       .condition =
           [](const SyscallEvent& e) { return e.kind == SyscallKind::kModuleLoad; }});
  monitor.add_rule(
      {.name = "container_escape_indicator",
       .priority = AlertPriority::kCritical,
       .condition = [](const SyscallEvent& e) {
         return (e.kind == SyscallKind::kOpen &&
                 (common::contains(e.arg, "docker.sock") ||
                  common::contains(e.arg, "core_pattern"))) ||
                e.kind == SyscallKind::kMount;
       }});
  monitor.add_rule(
      {.name = "write_below_etc",
       .priority = AlertPriority::kNotice,
       .condition = [](const SyscallEvent& e) {
         return e.kind == SyscallKind::kOpen && e.attr("mode") == "w" &&
                common::starts_with(e.arg, "/etc/");
       }});
  return monitor;
}

}  // namespace genio::appsec
