// E-L1 — Lesson 1: "ONL lacks formal security guidelines compared to
// mainstream distributions; applying STIGs/SCAP required iterative
// adjustments." Scores the published (mainstream-targeted) profiles
// against an ONL host vs an Ubuntu host, shows the applicability gap,
// the effect of the manually ported ONL adaptations, and the iterative
// remediation convergence.
#include <cstdio>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/hardening/auditor.hpp"

namespace gc = genio::common;
namespace hd = genio::hardening;
namespace os = genio::os;

int main() {
  std::printf("=== E-L1: STIG/SCAP applicability on ONL vs mainstream ===\n\n");

  const auto published = hd::make_stig_profile(/*include_onl_adaptations=*/false);
  const auto adapted = hd::make_stig_profile(/*include_onl_adaptations=*/true);
  const auto scap = hd::make_scap_benchmark();

  const os::Host onl = os::make_stock_onl_host("olt-1");
  const os::Host ubuntu = os::make_stock_ubuntu_host("srv-1");

  gc::Table table({"profile", "host", "applicable", "pass", "fail", "applicability"});
  auto add = [&table](const char* profile, const char* host,
                      const hd::ComplianceReport& report) {
    table.add_row({profile, host, std::to_string(report.passed + report.failed),
                   std::to_string(report.passed), std::to_string(report.failed),
                   gc::format_double(100.0 * report.applicability(), 0) + "%"});
  };
  add("STIG (as published)", "ubuntu", published.evaluate(ubuntu));
  add("STIG (as published)", "onl", published.evaluate(onl));
  add("STIG (+ONL adaptations)", "onl", adapted.evaluate(onl));
  add("SCAP benchmark", "onl", scap.evaluate(onl));
  std::printf("%s\n", table.render().c_str());

  // Iterative convergence: audit -> remediate -> re-audit on ONL.
  os::Host host = os::make_stock_onl_host("olt-1");
  hd::HostAuditor auditor;
  gc::Table rounds({"round", "findings", "hardening index", "remediations applied"});
  int round = 0;
  for (;;) {
    const auto report = auditor.audit(host);
    const auto findings = report.total_findings();
    int applied = 0;
    if (findings > 0 && round < 5) applied = auditor.harden(host);
    rounds.add_row({std::to_string(round), std::to_string(findings),
                    gc::format_double(report.hardening_index(), 1),
                    std::to_string(applied)});
    if (findings == 0 || round >= 5) break;
    ++round;
  }
  std::printf("iterative remediation on ONL:\n%s\n", rounds.render().c_str());

  const auto final_report = auditor.audit(host);
  genio::bench::Gate gate({genio::bench::kVerdict});
  gate.check(published.evaluate(onl).applicability() == 0.0 &&
                 published.evaluate(ubuntu).applicability() == 1.0 &&
                 final_report.total_findings() == 0,
             "shape check: published-STIG applicability on ONL (0%) << on ubuntu "
             "(100%); adaptations restore coverage; convergence in <= 2 rounds");
  return gate.exit_code();
}
