// Guideline-compliance checkers (M11): kube-bench / kubescape / kubesec /
// docker-bench analogues auditing the simulated cluster. Each tool covers
// only a subset of the full misconfiguration catalog — Lesson 5's point
// that "individual solutions only address a subset of the risks", so GENIO
// runs several and unions the results.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "genio/middleware/orchestrator.hpp"

namespace genio::middleware {

struct ClusterCheck {
  std::string id;     // "CKV-001"
  std::string title;
  std::string severity;  // "low" | "medium" | "high" | "critical"
  std::function<bool(const Cluster&)> passes;
};

struct CheckerFinding {
  std::string check_id;
  std::string title;
  std::string severity;
  std::string tool;
};

struct CheckerReport {
  std::string tool;
  std::vector<CheckerFinding> findings;
  std::size_t checks_run = 0;
};

class CheckerTool {
 public:
  CheckerTool(std::string name, std::vector<ClusterCheck> checks)
      : name_(std::move(name)), checks_(std::move(checks)) {}

  const std::string& name() const { return name_; }
  std::set<std::string> check_ids() const;

  CheckerReport run(const Cluster& cluster) const;

 private:
  std::string name_;
  std::vector<ClusterCheck> checks_;
};

/// The full misconfiguration catalog the tools draw from.
const std::vector<ClusterCheck>& full_check_catalog();

/// Tools with overlapping partial coverage of the catalog.
CheckerTool make_kube_bench();   // CIS-focused: control-plane + RBAC checks
CheckerTool make_kubescape();    // NSA-guidance: workload + admission checks
CheckerTool make_kubesec();      // workload-spec-only subset

/// Union of findings from several tools (deduplicated by check id).
std::vector<CheckerFinding> union_findings(const std::vector<CheckerReport>& reports);

/// Fraction of the full catalog covered by a set of tools (Lesson 5).
double catalog_coverage(const std::vector<const CheckerTool*>& tools);

}  // namespace genio::middleware
