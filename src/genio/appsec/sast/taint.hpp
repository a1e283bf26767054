// Taint-tracking dataflow pass. Models the source -> sanitizer -> sink
// discipline real analyzers use: request parameters / environment / file
// reads introduce taint, assignments and string concatenation propagate
// it, sanitizers (escaping, parameter binding, hashing, integer coercion)
// kill it, and dangerous sinks (SQL, process execution, eval,
// deserialization, weak hashes) report a finding only when an unsanitized
// flow actually reaches them — with the full trace, so operators can
// audit every hop. The engine (M14v3, dataflow.cpp) is flow-sensitive: it
// lowers each function to a CFG (cfg.hpp), merges taint at control-flow
// joins and composes recursion-safe function summaries to a fixpoint.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "genio/appsec/sast/parser.hpp"
#include "genio/appsec/sast/source.hpp"

namespace genio::appsec::sast {

enum class SinkCategory { kSql, kExec, kEval, kDeserialize, kWeakCrypto };
std::string to_string(SinkCategory category);

struct SourceSpec {
  std::string pattern;  // dotted-suffix match: "request.args.get", "getenv"
  std::string note;     // "request parameter", "environment variable"
  Language language = Language::kAny;
  bool call = true;     // false: matches a bare identifier (sys.argv)
};

struct SinkSpec {
  std::string rule_id;  // "TAINT-SQLI"
  std::string title;
  std::string severity;
  std::string pattern;
  SinkCategory category = SinkCategory::kSql;
  Language language = Language::kAny;
  /// SQL-style sinks: only the first argument is the query; taint in
  /// later arguments is parameter binding, i.e. sanitized by contract.
  bool first_arg_only = false;
};

struct SanitizerSpec {
  std::string pattern;
  std::string note;  // "escaped", "parameter-bound", "hashed"
  Language language = Language::kAny;
};

struct TaintRuleSet {
  std::vector<SourceSpec> sources;
  std::vector<SinkSpec> sinks;
  std::vector<SanitizerSpec> sanitizers;

  const SourceSpec* match_source_call(const std::string& callee, Language lang) const;
  const SourceSpec* match_source_ident(const std::string& ident, Language lang) const;
  const SinkSpec* match_sink(const std::string& callee, Language lang) const;
  const SanitizerSpec* match_sanitizer(const std::string& callee, Language lang) const;
};

/// Case-insensitive dotted-suffix match on whole segments: "db.execute"
/// matches "execute"; "flask.request.args.get" matches "request.args.get".
/// Partial segments never match — pattern "eval" does not match callee
/// "retrieval", and "args.get" does not match "myargs.get".
bool callee_matches(const std::string& callee, const std::string& pattern);

/// Last segment of a dotted name: "db.execute" -> "execute".
std::string last_dotted_segment(const std::string& dotted);

/// The default source/sink/sanitizer model for the simulated Python/Java
/// corpus (requests/flask, DB-API, subprocess; servlet API, JDBC).
TaintRuleSet default_taint_rules();

/// One complete flow the analyzer traced.
struct TaintFlow {
  std::string rule_id;
  std::string title;
  std::string severity;
  SinkCategory category = SinkCategory::kSql;
  std::string function;  // function the sink lives in
  int source_line = 0;
  int sink_line = 0;
  std::vector<TaintStep> trace;  // source step ... sink step, in order
  /// True when the flow passed a sanitizer (or used parameter binding):
  /// reported for audit, but not exploitable as written.
  bool sanitized = false;
  std::string sanitizer_note;
  /// True when taint originates from a function parameter whose callers
  /// are outside the scanned unit (medium confidence, not confirmed).
  bool parameter_dependent = false;
};

struct TaintReport {
  std::vector<TaintFlow> flows;
  /// Lines where a SQL-style sink runs a constant string literal with no
  /// tainted operand: dataflow evidence that a regex match on that line
  /// (e.g. a `%s` placeholder tripping the `%`-heuristic) is noise.
  std::set<int> constant_sink_lines;
  /// Lines whose calls nest deeper than kMaxCallNesting, or that open a
  /// region nested deeper than kMaxBlockNesting blocks. What lies past a
  /// cap was not analyzed, so no verdict on this file is complete.
  std::set<int> unanalyzed_lines;
};

class TaintAnalyzer {
 public:
  TaintAnalyzer();  // default_taint_rules()
  explicit TaintAnalyzer(TaintRuleSet rules);

  /// Parse, solve function summaries to a fixpoint, then extract flows.
  TaintReport analyze(const SourceFile& file) const;

  const TaintRuleSet& rules() const { return rules_; }

 private:
  TaintRuleSet rules_;
};

}  // namespace genio::appsec::sast
