// Static Application Security Testing (M14; the paper's second "M13").
// Two-pass architecture:
//   Pass 1 — taint-tracking dataflow (sast/taint.hpp): a CFG-based
//     flow-sensitive worklist solver with recursion-safe interprocedural
//     summaries (M14v3). Findings carry a full taint trace and
//     Confidence::kHigh; flows killed by a sanitizer or parameter binding
//     surface as Confidence::kAudit entries that the gate never counts
//     actionable. A statement whose calls or enclosing blocks nest deeper
//     than the parser follows (sast::kMaxCallNesting, kMaxBlockNesting)
//     yields a critical TAINT-DEPTH finding, so the gate fails closed on a
//     file it could not analyze.
//   Pass 2 — legacy Semgrep/Bandit-style line regexes (kept so historic
//     rule IDs and benchmarks stay comparable). Findings default to
//     Confidence::kMedium and are downgraded to kLow when the dataflow
//     pass proves the matched line harmless (sanitized flow or constant
//     query literal).
// Gates should act on is_actionable() findings, not raw match counts —
// the false-positive reduction Lesson 4 of the paper asks for.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "genio/appsec/image.hpp"
#include "genio/appsec/sast/source.hpp"
#include "genio/appsec/sast/taint.hpp"
#include "genio/common/thread_pool.hpp"

namespace genio::appsec {

/// Extract the source files from a flattened image (Crane-style). Every
/// file whose extension maps to a known language is scanned.
std::vector<SourceFile> extract_sources(const ContainerImage& image);

struct SastRule {
  std::string id;        // "B105-hardcoded-password"
  std::string title;
  std::string severity;  // "low"|"medium"|"high"|"critical"
  Language language = Language::kAny;
  /// Returns true when the given source LINE matches the defect pattern.
  std::function<bool(std::string_view line)> matches;
};

struct SastFinding {
  std::string rule_id;
  std::string title;
  std::string severity;
  std::string path;
  int line = 0;  // 1-based; for taint findings, the sink line
  Confidence confidence = Confidence::kMedium;
  std::vector<TaintStep> trace;  // taint findings: source -> ... -> sink
  std::string detail;            // sanitizer note / downgrade reason
};

class SastEngine {
 public:
  void add_rule(SastRule rule) { rules_.push_back(std::move(rule)); }
  void add_rules(std::vector<SastRule> rules);
  std::size_t rule_count() const { return rules_.size(); }

  /// Toggle the dataflow pass (off = legacy regex rules only).
  void set_taint_enabled(bool enabled) { taint_enabled_ = enabled; }
  bool taint_enabled() const { return taint_enabled_; }

  /// Attach the admission-scan pool: analyze_all/analyze_image analyze
  /// files in parallel (lexer, parser and taint pass are per-file pure)
  /// and merge findings in file order, byte-identical to the serial loop.
  /// A null or size-1 pool keeps the serial loop; analyze() is serial.
  void set_thread_pool(common::ThreadPool* pool) { pool_ = pool; }

  std::vector<SastFinding> analyze(const SourceFile& file) const;
  std::vector<SastFinding> analyze_all(const std::vector<SourceFile>& files) const;
  std::vector<SastFinding> analyze_image(const ContainerImage& image) const;

  /// Gate-worthy: kHigh and kMedium only. kLow (refuted regex noise) and
  /// kAudit (dataflow-proven sanitized flows) never block a deploy.
  static bool is_actionable(const SastFinding& finding);
  /// Findings with a complete verified taint trace.
  static std::size_t count_confirmed(const std::vector<SastFinding>& findings);

 private:
  std::vector<SastRule> rules_;
  sast::TaintAnalyzer taint_;
  bool taint_enabled_ = true;
  common::ThreadPool* pool_ = nullptr;  // non-owning; optional
};

/// Bandit-style Python security rules.
std::vector<SastRule> python_security_rules();
/// SpotBugs-style Java rules.
std::vector<SastRule> java_security_rules();
/// Semgrep-style language-agnostic rules (secrets, weak crypto).
std::vector<SastRule> generic_security_rules();

/// The full engine GENIO runs in its pipeline: taint pass + all rulepacks.
SastEngine make_default_sast_engine();

}  // namespace genio::appsec
