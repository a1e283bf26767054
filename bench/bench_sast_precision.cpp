// E-SAST2 — precision/recall gate for the M14v3 flow-sensitive taint
// engine. Scores it on two labeled corpora (sast_corpus.hpp):
//   legacy — straight-line source->sink flows, and safe files whose lines
//            still trip the regex rules.
//   flow   — branch-dependent sanitization, loop-carried taint, aliasing
//            and 2+-hop helper chains.
// On both the engine must hold confirmed recall 1.00 and a confirmed
// false-positive rate of 0.00. "Confirmed" = a complete unsanitized
// source->sink trace (the kHigh tier); parameter-dependent and audit
// flows never count.
// Invariants (exit nonzero if any breaks):
//   * legacy corpus: recall == 1.00 and FP rate == 0.00;
//   * flow corpus:   recall == 1.00 and FP rate == 0.00;
//   * SastEngine::analyze_all on a 4-worker pool, given each corpus as one
//     list so its files are sharded, renders byte-identically to an
//     engine without a pool.
// Writes a machine-readable summary to BENCH_sast.json (or --out PATH).
// `--smoke` skips the timing loop (verdicts and gates always run).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sast_corpus.hpp"

#include "genio/appsec/sast.hpp"
#include "genio/appsec/sast/taint.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/common/thread_pool.hpp"

namespace as = genio::appsec;
namespace sast = genio::appsec::sast;
namespace gc = genio::common;

namespace {

using genio::bench::LabeledSource;

/// Deterministic rendering of an engine's findings, for the sharded-vs-
/// serial identity check.
std::string render_findings(const std::vector<as::SastFinding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.rule_id + " " + f.severity + " " + f.path + ":L" + std::to_string(f.line) +
           " " + as::to_string(f.confidence) + " trace{" + as::render_trace(f.trace) +
           "} " + f.detail + "\n";
  }
  return out;
}

bool has_confirmed_flow(const sast::TaintReport& report) {
  for (const auto& flow : report.flows) {
    if (!flow.sanitized && !flow.parameter_dependent) return true;
  }
  return false;
}

struct Score {
  int vulnerable = 0;
  int safe = 0;
  int true_positives = 0;   // vulnerable files with a confirmed flow
  int false_positives = 0;  // safe files with a confirmed flow
  std::vector<std::string> missed;   // vulnerable, no confirmed flow
  std::vector<std::string> flagged;  // safe, confirmed flow reported

  double recall() const {
    return vulnerable == 0 ? 1.0
                           : static_cast<double>(true_positives) / vulnerable;
  }
  double fp_rate() const {
    return safe == 0 ? 0.0 : static_cast<double>(false_positives) / safe;
  }
};

Score score_engine(const sast::TaintAnalyzer& analyzer,
                   const std::vector<LabeledSource>& corpus) {
  Score score;
  for (const auto& entry : corpus) {
    const bool confirmed = has_confirmed_flow(analyzer.analyze(entry.file));
    if (entry.vulnerable) {
      ++score.vulnerable;
      if (confirmed) {
        ++score.true_positives;
      } else {
        score.missed.push_back(entry.name);
      }
    } else {
      ++score.safe;
      if (confirmed) {
        ++score.false_positives;
        score.flagged.push_back(entry.name);
      }
    }
  }
  return score;
}

/// Mean microseconds per corpus scan (all files, one engine), over
/// `rounds` scans after one warm-up scan.
double time_engine_us(const sast::TaintAnalyzer& analyzer,
                      const std::vector<LabeledSource>& corpus, int rounds) {
  return 1e6 * genio::bench::time_calls(1, 1, rounds, [&] {
                 for (const auto& entry : corpus) {
                   (void)analyzer.analyze(entry.file).flows.size();
                 }
               }).median;
}

void write_json(const genio::bench::Args& args, const Score& legacy, const Score& flow,
                double flow_us, bool parallel_identical, bool invariants_hold) {
  genio::bench::Json json(args.out, "sast_precision", args.smoke);
  json.field("tier", "confirmed (complete unsanitized trace)");
  json.object("scores");
  for (const auto& [key, s] : {std::pair{"flow_legacy", &legacy}, std::pair{"flow_flow", &flow}}) {
    json.object(key).field("vulnerable", s->vulnerable).field("safe", s->safe)
        .field("confirmed_recall", s->recall(), 2).field("confirmed_fp_rate", s->fp_rate(), 2)
        .close();
  }
  json.close();
  if (flow_us > 0.0) json.object("timing").field("flow_corpus_scan_us", flow_us, 1).close();
  json.field("parallel_identical_to_serial", parallel_identical);
  json.field("invariants_hold", invariants_hold);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_sast.json");
  const bool smoke = args.smoke;

  const std::vector<LabeledSource> legacy = genio::bench::make_legacy_sast_corpus();
  const std::vector<LabeledSource> flow_corpus = genio::bench::make_flow_sast_corpus();

  sast::TaintAnalyzer flow;
  const Score flow_legacy = score_engine(flow, legacy);
  const Score flow_flow = score_engine(flow, flow_corpus);

  // Sharded vs serial: each corpus, as one list, must render identically.
  bool parallel_identical = true;
  std::string first_divergence;
  {
    const as::SastEngine serial = as::make_default_sast_engine();
    gc::ThreadPool pool(4);
    as::SastEngine sharded = as::make_default_sast_engine();
    sharded.set_thread_pool(&pool);
    for (const auto& [name, corpus] : {std::pair{"legacy", &legacy},
                                       std::pair{"flow", &flow_corpus}}) {
      std::vector<as::SourceFile> files;
      for (const auto& entry : *corpus) files.push_back(entry.file);
      if (render_findings(serial.analyze_all(files)) !=
              render_findings(sharded.analyze_all(files)) &&
          parallel_identical) {
        parallel_identical = false;
        first_divergence = std::string(name) + " corpus";
      }
    }
  }

  const double flow_us = smoke ? 0.0 : time_engine_us(flow, flow_corpus, 200);

  gc::Table table({"corpus", "recall", "FP rate", "missed", "false alarms"});
  const auto join_names = [](const std::vector<std::string>& names) {
    std::string out;
    for (const auto& n : names) out += (out.empty() ? "" : ", ") + n;
    return out.empty() ? std::string("-") : out;
  };
  const auto add_row = [&](const char* label, const Score& s) {
    table.add_row({label, gc::format_double(s.recall(), 2),
                   gc::format_double(s.fp_rate(), 2), join_names(s.missed),
                   join_names(s.flagged)});
  };
  add_row("legacy", flow_legacy);
  add_row("flow", flow_flow);
  std::printf("%s\n", table.render().c_str());
  if (!smoke) std::printf("flow corpus scan: %.1f us\n", flow_us);

  genio::bench::Gate gate({genio::bench::kPassFail});
  gate.check(flow_legacy.recall() == 1.0, "flow engine: legacy recall == 1.00");
  gate.check(flow_legacy.fp_rate() == 0.0, "flow engine: legacy FP rate == 0.00");
  gate.check(flow_flow.recall() == 1.0, "flow engine: flow-corpus recall == 1.00");
  gate.check(flow_flow.fp_rate() == 0.0, "flow engine: flow-corpus FP rate == 0.00");
  gate.check(parallel_identical, "parallel shard renders identically to serial");
  if (!parallel_identical) {
    std::printf("  first divergence: %s\n", first_divergence.c_str());
  }

  write_json(args, flow_legacy, flow_flow, flow_us, parallel_identical, gate.ok());
  return gate.exit_code();
}
