#include "genio/appsec/sast.hpp"

#include <iterator>
#include <set>

#include "genio/common/strings.hpp"

namespace genio::appsec {

using common::contains;
using common::icontains;

std::vector<SourceFile> extract_sources(const ContainerImage& image) {
  std::vector<SourceFile> out;
  for (const auto& [path, content] : image.flatten()) {
    const Language language = language_for_path(path);
    if (language != Language::kAny) {
      out.push_back({path, language, common::to_text(content)});
    }
  }
  return out;
}

void SastEngine::add_rules(std::vector<SastRule> rules) {
  for (auto& rule : rules) rules_.push_back(std::move(rule));
}

bool SastEngine::is_actionable(const SastFinding& finding) {
  return finding.confidence == Confidence::kHigh ||
         finding.confidence == Confidence::kMedium;
}

std::size_t SastEngine::count_confirmed(const std::vector<SastFinding>& findings) {
  std::size_t n = 0;
  for (const auto& f : findings) n += f.confidence == Confidence::kHigh ? 1 : 0;
  return n;
}

std::vector<SastFinding> SastEngine::analyze(const SourceFile& file) const {
  std::vector<SastFinding> findings;

  // Pass 1: taint-tracking dataflow. Confirmed flows come first so
  // consumers that look at findings.front() see the strongest evidence.
  std::set<int> refuted_lines;  // sanitized flows + constant query literals
  if (taint_enabled_ && file.language != Language::kAny) {
    const sast::TaintReport report = taint_.analyze(file);
    refuted_lines = report.constant_sink_lines;
    for (const auto& flow : report.flows) {
      if (flow.sanitized) refuted_lines.insert(flow.sink_line);
      SastFinding finding;
      finding.rule_id = flow.rule_id;
      finding.title = flow.title;
      finding.severity = flow.severity;
      finding.path = file.path;
      finding.line = flow.sink_line;
      finding.confidence = flow.sanitized
                               ? Confidence::kAudit
                               : (flow.parameter_dependent ? Confidence::kMedium
                                                           : Confidence::kHigh);
      finding.trace = flow.trace;
      if (flow.sanitized) {
        finding.detail = "audit-only: flow neutralized: " + flow.sanitizer_note;
      } else if (flow.parameter_dependent) {
        finding.detail = "parameter-dependent flow in " + flow.function + "()";
      } else {
        finding.detail = "confirmed flow in " + flow.function + "()";
      }
      findings.push_back(std::move(finding));
    }
    for (const int line : report.unanalyzed_lines) {
      SastFinding finding{"TAINT-DEPTH",
                          "Calls or blocks nest too deeply to analyze; file fails closed",
                          "critical", file.path, line};
      finding.detail = "calls nest deeper than " +
                       std::to_string(sast::kMaxCallNesting) + " or blocks deeper than " +
                       std::to_string(sast::kMaxBlockNesting) +
                       " levels; the deeper code was not analyzed";
      findings.push_back(std::move(finding));
    }
  }

  // Pass 2: legacy line regexes. Kept for rule-ID continuity; downgraded
  // when the dataflow pass proved the matched line harmless.
  const auto lines = common::split_lines(file.content);
  for (const auto& rule : rules_) {
    if (rule.language != Language::kAny && rule.language != file.language) continue;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (rule.matches(lines[i])) {
        SastFinding finding{rule.id, rule.title, rule.severity, file.path,
                            static_cast<int>(i + 1)};
        if (refuted_lines.count(finding.line) != 0) {
          finding.confidence = Confidence::kLow;
          finding.detail = "downgraded: dataflow pass found no live taint "
                           "on this line";
        }
        findings.push_back(std::move(finding));
      }
    }
  }
  return findings;
}

std::vector<SastFinding> SastEngine::analyze_all(
    const std::vector<SourceFile>& files) const {
  std::vector<SastFinding> out;
  if (pool_ != nullptr && pool_->size() > 1 && files.size() > 1) {
    // Per-file analysis is pure; the ordered-merge reducer concatenates
    // results in file order, matching the serial loop byte for byte.
    pool_->parallel_map_reduce<std::vector<SastFinding>>(
        files.size(), [&](std::size_t i) { return analyze(files[i]); },
        [&out](std::size_t, std::vector<SastFinding>&& findings) {
          out.insert(out.end(), std::make_move_iterator(findings.begin()),
                     std::make_move_iterator(findings.end()));
        });
    return out;
  }
  for (const auto& file : files) {
    auto findings = analyze(file);
    out.insert(out.end(), findings.begin(), findings.end());
  }
  return out;
}

std::vector<SastFinding> SastEngine::analyze_image(const ContainerImage& image) const {
  return analyze_all(extract_sources(image));
}

std::vector<SastRule> python_security_rules() {
  return {
      {.id = "PY-SQLI-01",
       .title = "SQL built by string concatenation/format (injection sink)",
       .severity = "critical",
       .language = Language::kPython,
       .matches =
           [](std::string_view line) {
             return (icontains(line, "execute(") &&
                     (contains(line, "+") || contains(line, "%") ||
                      contains(line, "format(")));
           }},
      {.id = "PY-CMDI-01",
       .title = "Shell command built from variables (command injection)",
       .severity = "critical",
       .language = Language::kPython,
       .matches =
           [](std::string_view line) {
             return (icontains(line, "os.system(") || icontains(line, "subprocess") ||
                     icontains(line, "popen(")) &&
                    (contains(line, "+") || contains(line, "format(") ||
                     contains(line, "f\""));
           }},
      {.id = "PY-EVAL-01",
       .title = "Use of eval/exec on dynamic input",
       .severity = "high",
       .language = Language::kPython,
       .matches =
           [](std::string_view line) {
             return icontains(line, "eval(") || icontains(line, "exec(");
           }},
      {.id = "PY-DESER-01",
       .title = "Unsafe deserialization (pickle/yaml.load)",
       .severity = "high",
       .language = Language::kPython,
       .matches =
           [](std::string_view line) {
             return icontains(line, "pickle.loads") ||
                    (icontains(line, "yaml.load(") && !icontains(line, "safeloader"));
           }},
      {.id = "PY-TLSOFF-01",
       .title = "TLS certificate verification disabled",
       .severity = "high",
       .language = Language::kPython,
       .matches = [](std::string_view line) { return icontains(line, "verify=false"); }},
  };
}

std::vector<SastRule> java_security_rules() {
  return {
      {.id = "JV-SQLI-01",
       .title = "Statement executed with concatenated SQL",
       .severity = "critical",
       .language = Language::kJava,
       .matches =
           [](std::string_view line) {
             return (icontains(line, "executequery(") ||
                     icontains(line, "executeupdate(")) &&
                    contains(line, "+");
           }},
      {.id = "JV-NPE-01",
       .title = "Possible null dereference after nullable call",
       .severity = "medium",
       .language = Language::kJava,
       .matches =
           [](std::string_view line) {
             return icontains(line, ".get()") && icontains(line, "optional");
           }},
      {.id = "JV-EXC-01",
       .title = "Swallowed exception (empty catch)",
       .severity = "low",
       .language = Language::kJava,
       .matches =
           [](std::string_view line) {
             return icontains(line, "catch") && contains(line, "{}");
           }},
      {.id = "JV-XSS-01",
       .title = "Unescaped request parameter written to response",
       .severity = "high",
       .language = Language::kJava,
       .matches =
           [](std::string_view line) {
             return icontains(line, "getwriter().print") &&
                    icontains(line, "getparameter");
           }},
  };
}

std::vector<SastRule> generic_security_rules() {
  return {
      {.id = "GEN-SECRET-01",
       .title = "Hardcoded credential",
       .severity = "critical",
       .language = Language::kAny,
       .matches =
           [](std::string_view line) {
             return (icontains(line, "password") || icontains(line, "api_key") ||
                     icontains(line, "secret")) &&
                    contains(line, "=") &&
                    (contains(line, "\"") || contains(line, "'")) &&
                    !icontains(line, "getenv") && !icontains(line, "input(");
           }},
      {.id = "GEN-CRYPTO-01",
       .title = "Weak cryptographic primitive (MD5/SHA1/DES/ECB)",
       .severity = "high",
       .language = Language::kAny,
       .matches =
           [](std::string_view line) {
             return icontains(line, "md5") || icontains(line, "sha1") ||
                    icontains(line, "des.") || icontains(line, "/ecb/");
           }},
      {.id = "GEN-RAND-01",
       .title = "Non-cryptographic RNG used for security material",
       .severity = "medium",
       .language = Language::kAny,
       .matches =
           [](std::string_view line) {
             return (icontains(line, "random.random") || icontains(line, "new random(")) &&
                    (icontains(line, "token") || icontains(line, "key") ||
                     icontains(line, "nonce"));
           }},
  };
}

SastEngine make_default_sast_engine() {
  SastEngine engine;  // taint pass is on by default
  engine.add_rules(python_security_rules());
  engine.add_rules(java_security_rules());
  engine.add_rules(generic_security_rules());
  return engine;
}

}  // namespace genio::appsec
