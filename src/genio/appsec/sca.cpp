#include "genio/appsec/sca.hpp"

#include <algorithm>

namespace genio::appsec {

std::size_t ScaReport::reachable_count() const {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(), [](const ScaFinding& f) { return f.reachable; }));
}

std::vector<ScaFinding> ScaReport::actionable() const {
  std::vector<ScaFinding> out;
  for (const auto& f : findings) {
    if (f.reachable) out.push_back(f);
  }
  return out;
}

double ScaReport::noise_ratio() const {
  if (findings.empty()) return 0.0;
  return 1.0 - static_cast<double>(reachable_count()) /
                   static_cast<double>(findings.size());
}

ScaReport ScaScanner::scan(const ContainerImage& image) const {
  ScaReport report;
  report.packages_scanned = image.manifest().size();
  for (const auto& pkg : image.manifest()) {
    for (const vuln::CveRecord* record : db_->matching(pkg.name, pkg.version)) {
      report.findings.push_back(
          {record->id, pkg.name, pkg.version, record->cvss.base_score(), true});
    }
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const ScaFinding& a, const ScaFinding& b) { return a.score > b.score; });
  return report;
}

ScaReport ScaScanner::scan_with_reachability(
    const ContainerImage& image, const std::set<std::string>& imported_packages) const {
  ScaReport report = scan(image);
  for (auto& finding : report.findings) {
    finding.reachable = imported_packages.contains(finding.package);
  }
  return report;
}

}  // namespace genio::appsec
