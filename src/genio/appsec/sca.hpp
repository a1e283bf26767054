// Software Composition Analysis (M13, Trivy/OWASP-DC style): match an
// image's package manifest against the CVE database. Models Lesson 7's
// noise problem: without reachability information every vulnerable
// dependency is a finding, even ones the application never imports; with a
// reachability set (the packages actually used), findings are partitioned
// into actionable vs noise.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "genio/appsec/image.hpp"
#include "genio/vuln/cve.hpp"

namespace genio::appsec {

struct ScaFinding {
  std::string cve_id;
  std::string package;
  Version installed;
  double score = 0.0;
  bool reachable = true;  // only meaningful when reachability was supplied
};

struct ScaReport {
  std::vector<ScaFinding> findings;
  std::size_t packages_scanned = 0;

  std::size_t reachable_count() const;
  /// Findings kept after reachability filtering.
  std::vector<ScaFinding> actionable() const;
  /// Noise ratio: fraction of findings that are unreachable (Lesson 7).
  double noise_ratio() const;
};

class ScaScanner {
 public:
  explicit ScaScanner(const vuln::CveDatabase* db) : db_(db) {}

  /// Plain scan: every manifest package is checked; everything reachable.
  ScaReport scan(const ContainerImage& image) const;

  /// Scan with reachability: `imported_packages` are the dependencies the
  /// application code actually links/imports (from build metadata).
  ScaReport scan_with_reachability(const ContainerImage& image,
                                   const std::set<std::string>& imported_packages) const;

 private:
  const vuln::CveDatabase* db_;
};

}  // namespace genio::appsec
