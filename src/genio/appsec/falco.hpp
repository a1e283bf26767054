// Falco-style runtime monitoring (M18): evaluate a customizable rule set
// against the live syscall-event stream — detecting without blocking —
// with priorities, per-rule exceptions for false-positive tuning
// (Lesson 8), and alert/overhead accounting.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "genio/appsec/events.hpp"

namespace genio::appsec {

enum class AlertPriority { kNotice, kWarning, kCritical };
std::string to_string(AlertPriority priority);

struct FalcoRule {
  std::string name;        // "shell_in_container"
  AlertPriority priority = AlertPriority::kWarning;
  std::function<bool(const SyscallEvent&)> condition;
  /// Tuning exceptions: workloads (globs) the rule must not fire for —
  /// how operators drive the false-positive rate down (Lesson 8).
  std::vector<std::string> exception_workloads;
};

struct FalcoAlert {
  std::string rule;
  AlertPriority priority = AlertPriority::kWarning;
  SyscallEvent event;
};

struct MonitorStats {
  std::uint64_t events_processed = 0;
  std::uint64_t alerts_emitted = 0;
  std::uint64_t rule_evaluations = 0;

  double alert_rate() const {
    return events_processed == 0
               ? 0.0
               : static_cast<double>(alerts_emitted) /
                     static_cast<double>(events_processed);
  }
};

class FalcoMonitor {
 public:
  void add_rule(FalcoRule rule) { rules_.push_back(std::move(rule)); }
  std::size_t rule_count() const { return rules_.size(); }

  /// Add a tuning exception to an existing rule. Returns false if absent.
  bool add_exception(const std::string& rule_name, const std::string& workload_glob);

  /// Process one event; matching rules emit alerts (never blocks).
  std::vector<FalcoAlert> process(const SyscallEvent& event);

  /// Process a whole trace.
  std::vector<FalcoAlert> process_trace(const std::vector<SyscallEvent>& trace);

  const MonitorStats& stats() const { return stats_; }

 private:
  std::vector<FalcoRule> rules_;
  MonitorStats stats_;
};

/// The GENIO default detection rulepack: unexpected shell execution,
/// sensitive-file reads, suspicious outbound connections, privilege
/// changes, kernel module loads, container-escape indicators.
FalcoMonitor make_default_falco_monitor();

}  // namespace genio::appsec
