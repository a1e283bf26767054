#include "genio/appsec/sast/taint.hpp"

#include "genio/common/strings.hpp"

namespace genio::appsec::sast {

std::string to_string(SinkCategory category) {
  switch (category) {
    case SinkCategory::kSql: return "SQL";
    case SinkCategory::kExec: return "process-exec";
    case SinkCategory::kEval: return "eval";
    case SinkCategory::kDeserialize: return "deserialization";
    case SinkCategory::kWeakCrypto: return "weak-hash";
  }
  return "sink";
}

bool callee_matches(const std::string& callee, const std::string& pattern) {
  if (pattern.empty()) return false;
  const std::string c = common::to_lower(callee);
  const std::string p = common::to_lower(pattern);
  if (c.size() < p.size()) return false;
  // Suffix match anchored on whole dotted segments: the pattern must cover
  // the tail of the callee exactly, and the character before the matched
  // tail (if any) must be the '.' segment separator.
  const std::size_t off = c.size() - p.size();
  if (c.compare(off, p.size(), p) != 0) return false;
  return off == 0 || c[off - 1] == '.';
}

std::string last_dotted_segment(const std::string& dotted) {
  const auto dot = dotted.find_last_of('.');
  return dot == std::string::npos ? dotted : dotted.substr(dot + 1);
}

namespace {

bool lang_ok(Language spec, Language file) {
  return spec == Language::kAny || spec == file;
}

}  // namespace

const SourceSpec* TaintRuleSet::match_source_call(const std::string& callee,
                                                  Language lang) const {
  for (const auto& s : sources) {
    if (s.call && lang_ok(s.language, lang) && callee_matches(callee, s.pattern)) {
      return &s;
    }
  }
  return nullptr;
}

const SourceSpec* TaintRuleSet::match_source_ident(const std::string& ident,
                                                   Language lang) const {
  for (const auto& s : sources) {
    if (!s.call && lang_ok(s.language, lang) && callee_matches(ident, s.pattern)) {
      return &s;
    }
  }
  return nullptr;
}

const SinkSpec* TaintRuleSet::match_sink(const std::string& callee,
                                         Language lang) const {
  for (const auto& s : sinks) {
    if (lang_ok(s.language, lang) && callee_matches(callee, s.pattern)) return &s;
  }
  return nullptr;
}

const SanitizerSpec* TaintRuleSet::match_sanitizer(const std::string& callee,
                                                   Language lang) const {
  for (const auto& s : sanitizers) {
    if (lang_ok(s.language, lang) && callee_matches(callee, s.pattern)) return &s;
  }
  return nullptr;
}

TaintRuleSet default_taint_rules() {
  TaintRuleSet rules;
  const Language py = Language::kPython;
  const Language java = Language::kJava;
  const Language any = Language::kAny;

  rules.sources = {
      {"request.args.get", "request parameter", py, true},
      {"request.form.get", "request parameter", py, true},
      {"request.values.get", "request parameter", py, true},
      {"request.headers.get", "request header", py, true},
      {"request.get_json", "request body", py, true},
      {"input", "interactive input", py, true},
      {"getenv", "environment variable", any, true},
      {"environ.get", "environment variable", py, true},
      {"read", "file contents", any, true},
      {"readline", "line read from stream", any, true},
      {"readlines", "lines read from stream", py, true},
      {"getparameter", "request parameter", java, true},
      {"getheader", "request header", java, true},
      {"getquerystring", "query string", java, true},
      {"nextline", "interactive input", java, true},
      // Bare identifiers that are taint by themselves.
      {"request.args", "request parameter map", py, false},
      {"request.form", "request form map", py, false},
      {"sys.argv", "command-line argument", py, false},
  };

  rules.sinks = {
      {"TAINT-SQLI", "Tainted data reaches SQL execution sink", "critical",
       "execute", SinkCategory::kSql, any, true},
      {"TAINT-SQLI", "Tainted data reaches SQL execution sink", "critical",
       "executemany", SinkCategory::kSql, py, true},
      {"TAINT-SQLI", "Tainted data reaches SQL execution sink", "critical",
       "executequery", SinkCategory::kSql, java, true},
      {"TAINT-SQLI", "Tainted data reaches SQL execution sink", "critical",
       "executeupdate", SinkCategory::kSql, java, true},
      {"TAINT-SQLI", "Tainted data reaches SQL execution sink", "critical",
       "createnativequery", SinkCategory::kSql, java, true},
      {"TAINT-CMDI", "Tainted data reaches command execution sink", "critical",
       "system", SinkCategory::kExec, any, false},
      {"TAINT-CMDI", "Tainted data reaches command execution sink", "critical",
       "popen", SinkCategory::kExec, any, false},
      {"TAINT-CMDI", "Tainted data reaches command execution sink", "critical",
       "subprocess.run", SinkCategory::kExec, py, false},
      {"TAINT-CMDI", "Tainted data reaches command execution sink", "critical",
       "subprocess.call", SinkCategory::kExec, py, false},
      {"TAINT-CMDI", "Tainted data reaches command execution sink", "critical",
       "subprocess.check_output", SinkCategory::kExec, py, false},
      {"TAINT-EVAL", "Tainted data evaluated as code", "high", "eval",
       SinkCategory::kEval, any, false},
      {"TAINT-EVAL", "Tainted data evaluated as code", "high", "exec",
       SinkCategory::kEval, any, false},
      {"TAINT-DESER", "Tainted data deserialized unsafely", "high",
       "pickle.loads", SinkCategory::kDeserialize, py, false},
      {"TAINT-DESER", "Tainted data deserialized unsafely", "high",
       "pickle.load", SinkCategory::kDeserialize, py, false},
      {"TAINT-DESER", "Tainted data deserialized unsafely", "high", "yaml.load",
       SinkCategory::kDeserialize, py, false},
      {"TAINT-DESER", "Tainted data deserialized unsafely", "high",
       "marshal.loads", SinkCategory::kDeserialize, py, false},
      {"TAINT-DESER", "Tainted data deserialized unsafely", "high",
       "readobject", SinkCategory::kDeserialize, java, false},
      {"TAINT-WEAKHASH", "Tainted data fed to a weak hash", "medium", "md5",
       SinkCategory::kWeakCrypto, any, false},
      {"TAINT-WEAKHASH", "Tainted data fed to a weak hash", "medium", "sha1",
       SinkCategory::kWeakCrypto, any, false},
  };

  rules.sanitizers = {
      {"escape", "escaped", any},
      {"quote", "shell-quoted", any},
      {"sanitize", "sanitized", any},
      {"bleach.clean", "HTML-sanitized", py},
      {"int", "coerced to integer", py},
      {"float", "coerced to float", py},
      {"parseint", "coerced to integer", java},
      {"parselong", "coerced to integer", java},
      {"sha256", "hashed", any},
      {"sha512", "hashed", any},
      {"blake2b", "hashed", any},
      {"pbkdf2_hmac", "hashed", any},
      {"preparestatement", "prepared statement", java},
      {"setstring", "parameter-bound", java},
      {"setint", "parameter-bound", java},
      {"bind", "parameter-bound", any},
      {"bind_param", "parameter-bound", any},
      {"encodeforsql", "SQL-encoded", any},
      {"escapehtml", "HTML-escaped", any},
      {"urlencoder.encode", "URL-encoded", java},
  };
  return rules;
}

}  // namespace genio::appsec::sast
