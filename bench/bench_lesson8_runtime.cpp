// E-L8 — Lesson 8: "challenges remain in tuning policies and rules to
// minimize false positives without weakening security; maintaining
// performance overheads within acceptable bounds is a key consideration."
// Measures (a) Falco-style per-event evaluation cost as the rule set
// grows, (b) sandbox enforcement cost, and (c) the false-positive rate
// across tuning rounds, checking that tuning does not lose true positives.
// Each timing row is the median [q1, q3] time per call over kRowReps timed
// blocks.
#include <cstdio>

#include "bench_util.hpp"

#include "genio/appsec/events.hpp"
#include "genio/appsec/falco.hpp"
#include "genio/appsec/sandbox.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"

namespace gc = genio::common;
namespace as = genio::appsec;
namespace gb = genio::bench;

namespace {

as::FalcoMonitor make_monitor_with_rules(int rule_count) {
  as::FalcoMonitor monitor = as::make_default_falco_monitor();
  // Pad with realistic path-match rules to scale the rule set.
  for (int i = static_cast<int>(monitor.rule_count()); i < rule_count; ++i) {
    const std::string needle = "/opt/sensitive-" + std::to_string(i) + "/";
    monitor.add_rule({.name = "custom_rule_" + std::to_string(i),
                      .priority = as::AlertPriority::kNotice,
                      .condition = [needle](const as::SyscallEvent& e) {
                        return e.kind == as::SyscallKind::kOpen &&
                               gc::starts_with(e.arg, needle);
                      }});
  }
  return monitor;
}

void time_falco_per_event() {
  const auto trace = as::traces::benign_web_app("tenant-a/web", 100);
  for (const int rules : {7, 50, 200, 1000}) {
    auto monitor = make_monitor_with_rules(rules);
    const int calls = rules >= 1000 ? 2000 : 20000;
    const auto per_call = gb::time_calls(1000, gb::kRowReps, calls, [&](int k) {
      gb::keep(monitor.process(trace[static_cast<std::size_t>(k) % trace.size()]));
    });
    gb::print_row("falco_per_event/" + std::to_string(rules), per_call,
                  std::to_string(rules) + " rules, " + gb::rate(1, per_call, "events", 0));
  }
}

void time_sandbox_per_event() {
  const as::SyscallEvent event{gc::SimTime{}, "tenant-0/web", as::SyscallKind::kOpen,
                               "/app/data/cache.db", {{"mode", "w"}}};
  for (const int policies : {1, 16, 128}) {
    as::SandboxEnforcer enforcer;
    for (int i = 0; i < policies; ++i) {
      enforcer.add_policy(as::make_web_workload_policy("tenant-" + std::to_string(i) + "/*"));
    }
    const auto per_call =
        gb::time_calls(1000, gb::kRowReps, 20000, [&] { gb::keep(enforcer.evaluate(event)); });
    gb::print_row("sandbox_per_event/" + std::to_string(policies), per_call,
                  std::to_string(policies) + " policies");
  }
}

}  // namespace

int main() {
  std::printf("=== E-L8: runtime monitoring tuning and overhead ===\n\n");

  // False-positive tuning study. Workload mix: ordinary tenants plus
  // platform jobs whose legitimate behavior trips the default rules.
  struct TuningRound {
    const char* description;
    std::vector<std::pair<std::string, std::string>> exceptions;  // rule, workload
  };
  const TuningRound rounds[] = {
      {"round 0: default rule set", {}},
      {"round 1: allow backup job to read keys",
       {{"read_sensitive_file", "platform/backup"}}},
      {"round 2: + allow debug shell in CI namespace",
       {{"read_sensitive_file", "platform/backup"},
        {"shell_in_container", "ci/*"}}},
      {"round 3: + allow /etc writes by config-sync",
       {{"read_sensitive_file", "platform/backup"},
        {"shell_in_container", "ci/*"},
        {"write_below_etc", "platform/config-sync"}}},
  };

  gc::Table table({"tuning round", "events", "alerts", "false positives",
                   "true positives kept", "FP rate"});
  std::vector<as::SyscallEvent> benign;
  for (const auto& trace : {as::traces::benign_web_app("tenant-a/web", 30),
                            as::traces::benign_web_app("tenant-b/api", 30)}) {
    benign.insert(benign.end(), trace.begin(), trace.end());
  }
  // Legitimate-but-alarming platform activity (the FP source).
  benign.push_back({gc::SimTime{}, "platform/backup", as::SyscallKind::kOpen,
                    "/root/.ssh/id_rsa", {{"mode", "r"}}});
  benign.push_back({gc::SimTime{}, "ci/builder", as::SyscallKind::kExec, "/bin/sh", {}});
  benign.push_back({gc::SimTime{}, "platform/config-sync", as::SyscallKind::kOpen,
                    "/etc/genio/routes.conf", {{"mode", "w"}}});
  const auto malicious = as::traces::post_exploitation("tenant-evil/app");

  bool fp_monotone = true;
  std::size_t last_fp = SIZE_MAX;
  bool tp_kept_all = true;
  for (const auto& round : rounds) {
    auto monitor = as::make_default_falco_monitor();
    for (const auto& [rule, workload] : round.exceptions) {
      (void)monitor.add_exception(rule, workload);
    }
    const auto fp_alerts = monitor.process_trace(benign);
    auto fresh = as::make_default_falco_monitor();
    for (const auto& [rule, workload] : round.exceptions) {
      (void)fresh.add_exception(rule, workload);
    }
    const auto tp_alerts = fresh.process_trace(malicious);

    const std::size_t events = benign.size() + malicious.size();
    table.add_row({round.description, std::to_string(events),
                   std::to_string(fp_alerts.size() + tp_alerts.size()),
                   std::to_string(fp_alerts.size()), std::to_string(tp_alerts.size()),
                   gc::format_double(100.0 * fp_alerts.size() / benign.size(), 1) + "%"});
    if (fp_alerts.size() > last_fp) fp_monotone = false;
    last_fp = fp_alerts.size();
    if (tp_alerts.size() < 4) tp_kept_all = false;
  }
  std::printf("%s\n", table.render().c_str());
  gb::Gate gate({gb::kVerdict});
  gate.check(fp_monotone && tp_kept_all && last_fp == 0,
             "shape check: tuning rounds drive FPs to zero without losing "
             "true-positive detections");
  std::printf("\n");

  time_falco_per_event();
  time_sandbox_per_event();
  return gate.exit_code();
}
