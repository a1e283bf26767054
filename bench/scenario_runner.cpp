// scenario_runner: executes the scenario catalog in parallel and enforces
// the consolidated scorecard. Every registered scenario runs on the
// thread pool with its own derived seed and sim-time watchdog; a
// serial re-run of a sample proves parallel verdicts are byte-identical.
// Exits nonzero when any scorecard invariant is violated, and writes
// BENCH_scenarios.json (or --out PATH) for CI artifacts. It also prints the
// 10 slowest executions by wall time and records them, with the summed
// wall time, as informational fields (host-dependent, never gated).
//
//   scenario_runner --all                 run the full catalog
//   scenario_runner --list [--filter F]   print matching scenario names
//   scenario_runner --filter smoke        run the smoke subset
//   scenario_runner --smoke               alias for --filter smoke
//   scenario_runner --seed N --repeat R   seeds N .. N+R-1
//   scenario_runner --jobs J              pool size (0 = auto)
//   scenario_runner --no-determinism-check
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/resilience/chaos.hpp"
#include "genio/scenario/catalog.hpp"
#include "genio/scenario/runner.hpp"
#include "genio/scenario/scenario.hpp"

namespace gc = genio::common;
namespace gs = genio::scenario;
namespace gr = genio::resilience;

namespace {

constexpr std::size_t kCatalogFloor = 119;
constexpr std::size_t kSlowestShown = 10;

const gr::FaultKind kAllFaultKinds[] = {
    gr::FaultKind::kPonLinkFlap,    gr::FaultKind::kPonBitErrorBurst,
    gr::FaultKind::kOnuChurn,       gr::FaultKind::kNodeCrash,
    gr::FaultKind::kKubeletStall,   gr::FaultKind::kSdnOutage,
    gr::FaultKind::kRegistryOutage, gr::FaultKind::kFeedOutage,
    gr::FaultKind::kTpmTransient,
};

struct Scorecard {
  std::size_t catalog_size = 0;
  std::size_t selected = 0;
  std::size_t executions = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t timeouts = 0;
  std::uint64_t gate_bypasses = 0;
  std::uint64_t events_captured = 0;
  bool determinism_checked = false;
  bool determinism_ok = true;
  std::size_t determinism_sampled = 0;
  bool full_catalog = false;  // unfiltered run: coverage invariants apply
  std::map<std::string, std::size_t> threat_passes;   // "T1" -> passes
  std::map<std::string, std::size_t> fault_coverage;  // fault tag -> scenarios
  std::vector<const gs::ScenarioVerdict*> failures;
  std::vector<std::string> determinism_mismatches;
  double wall_ms_total = 0.0;                      // sum over executions
  std::vector<const gs::ScenarioVerdict*> slowest;  // by wall_ms, descending
};

void write_json(const std::string& path, bool smoke, const Scorecard& card,
                const genio::bench::Gate& gate, std::uint64_t seed, int repeat) {
  genio::bench::Json json(path, "scenario_fabric", smoke);
  json.field("seed", seed).field("repeat", repeat).field("catalog_size", card.catalog_size);
  json.field("selected", card.selected).field("executions", card.executions);
  json.field("passed", card.passed).field("failed", card.failed).field("timeouts", card.timeouts);
  json.field("gate_bypasses", card.gate_bypasses).field("events_captured", card.events_captured);
  json.field("determinism_checked", card.determinism_checked);
  json.field("determinism_ok", card.determinism_ok);
  json.field("determinism_sampled", card.determinism_sampled);
  json.object("threat_contrasts");
  for (const auto& [threat, passes] : card.threat_passes) json.field(threat, passes);
  json.close().object("fault_kind_coverage");
  for (const auto& [kind, count] : card.fault_coverage) json.field(kind, count);
  json.close().array("failures");
  for (const auto* v : card.failures) {
    json.object()
        .field("name", v->name).field("outcome", gs::to_string(v->outcome)).field("error", v->error)
        .field("repro", v->repro()).close();
  }
  json.close().field("wall_ms_total", card.wall_ms_total, 1).array("slowest");
  for (const auto* v : card.slowest) {
    json.object().field("name", v->name).field("wall_ms", v->wall_ms, 1).close();
  }
  json.close().object("invariants");
  for (const auto& [name, ok] : gate.checks()) json.field(name, ok);
  json.close();
  json.field("invariants_hold", gate.ok());
}

}  // namespace

int main(int argc, char** argv) {
  gs::RunOptions options;
  bool list_only = false;
  bool determinism_check = true;
  std::string out_path = "BENCH_scenarios.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) list_only = true;
    else if (std::strcmp(arg, "--all") == 0) options.filter.clear();
    else if (std::strcmp(arg, "--smoke") == 0) options.filter = "smoke";
    else if (std::strcmp(arg, "--no-determinism-check") == 0) determinism_check = false;
    else if (std::strcmp(arg, "--filter") == 0 && i + 1 < argc) options.filter = argv[++i];
    else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc)
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(arg, "--repeat") == 0 && i + 1 < argc)
      options.repeat = std::atoi(argv[++i]);
    else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc)
      options.workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }

  gs::register_builtin_catalog();
  const auto& registry = gs::ScenarioRegistry::global();
  const auto selected = registry.match(options.filter);

  if (list_only) {
    for (const auto* def : selected) {
      std::string tags;
      for (const auto& tag : def->tags) tags += (tags.empty() ? "" : ",") + tag;
      std::printf("%-48s %s\n", def->name.c_str(), tags.c_str());
    }
    std::printf("%zu of %zu scenarios match\n", selected.size(), registry.size());
    return 0;
  }

  std::printf("=== scenario fabric: %zu of %zu scenarios, seed %llu, repeat %d ===\n\n",
              selected.size(), registry.size(),
              static_cast<unsigned long long>(options.seed), options.repeat);

  const gs::RunSummary summary = gs::run_catalog(registry, options);

  Scorecard card;
  card.catalog_size = registry.size();
  card.selected = summary.selected;
  card.executions = summary.verdicts.size();
  card.passed = summary.passed;
  card.failed = summary.failed;
  card.timeouts = summary.timeouts;
  card.gate_bypasses = summary.gate_bypasses;
  card.full_catalog = options.filter.empty();
  for (const auto& verdict : summary.verdicts) {
    card.events_captured += verdict.events_captured;
    card.wall_ms_total += verdict.wall_ms;
    card.slowest.push_back(&verdict);
    if (!verdict.passed()) card.failures.push_back(&verdict);
  }
  const std::size_t shown = std::min(kSlowestShown, card.slowest.size());
  const auto slower = [](const auto* a, const auto* b) { return a->wall_ms > b->wall_ms; };
  std::partial_sort(card.slowest.begin(),
                    card.slowest.begin() + static_cast<std::ptrdiff_t>(shown),
                    card.slowest.end(), slower);
  card.slowest.resize(shown);

  // Coverage maps come from the selection, pass counts from the verdicts.
  std::map<std::string, const gs::ScenarioDef*> by_name;
  for (const auto* def : selected) by_name[def->name] = def;
  for (const auto& verdict : summary.verdicts) {
    const auto it = by_name.find(verdict.name);
    if (it == by_name.end()) continue;
    const std::string threat = it->second->tag_value("threat:");
    if (!threat.empty() && verdict.passed()) ++card.threat_passes[threat];
    const std::string fault = it->second->tag_value("fault:");
    if (!fault.empty()) ++card.fault_coverage[fault];
  }

  if (determinism_check && !summary.verdicts.empty()) {
    const std::size_t stride = std::max<std::size_t>(1, summary.selected / 16);
    card.determinism_checked = true;
    card.determinism_ok = gs::verify_determinism(registry, options, summary, stride,
                                                 &card.determinism_mismatches);
    card.determinism_sampled = (summary.selected + stride - 1) / stride;
  }

  // -- report ----------------------------------------------------------------
  gc::Table table({"outcome", "count"});
  table.add_row({"pass", std::to_string(card.passed)});
  table.add_row({"fail", std::to_string(card.failed)});
  table.add_row({"timeout", std::to_string(card.timeouts)});
  std::printf("%s\n", table.render().c_str());
  std::printf("%zu executions, %llu bus events observed, %llu gate bypasses\n",
              card.executions, static_cast<unsigned long long>(card.events_captured),
              static_cast<unsigned long long>(card.gate_bypasses));
  if (card.determinism_checked) {
    std::printf("determinism: %zu scenarios re-run serially, %s\n",
                card.determinism_sampled,
                card.determinism_ok ? "all digests identical" : "MISMATCH");
  }
  for (const auto* v : card.failures) {
    std::printf("FAILED %-44s %s\n       repro: %s\n", v->name.c_str(),
                v->error.empty() ? "(invariant violated)" : v->error.c_str(),
                v->repro().c_str());
    for (const auto& inv : v->invariants) {
      if (!inv.held) {
        std::printf("       invariant %s%s%s\n", inv.name.c_str(),
                    inv.detail.empty() ? "" : ": ", inv.detail.c_str());
      }
    }
  }
  std::printf("\nslowest %zu executions (wall ms, summed over all: %.1f):\n",
              card.slowest.size(), card.wall_ms_total);
  for (const auto* v : card.slowest) {
    std::printf("  %9.1f  %s\n", v->wall_ms, v->name.c_str());
  }
  std::printf("\n");

  // -- scorecard -------------------------------------------------------------
  genio::bench::Gate gate({genio::bench::kInvariants, genio::bench::kChecklist});
  gate.check(card.failed == 0, "every selected scenario passed (zero failures)");
  gate.check(card.timeouts == 0, "zero watchdog timeouts");
  gate.check(card.gate_bypasses == 0, "zero gate bypasses across every audited report");
  if (card.determinism_checked) {
    gate.check(card.determinism_ok, "parallel verdicts byte-identical to serial re-run");
  }
  if (card.full_catalog) {
    gate.check(card.catalog_size >= kCatalogFloor,
               "catalog holds at least " + std::to_string(kCatalogFloor) + " scenarios");
    for (int t = 1; t <= 8; ++t) {
      const std::string threat = "T" + std::to_string(t);
      const auto it = card.threat_passes.find(threat);
      gate.check(it != card.threat_passes.end() && it->second > 0,
                 "threat " + threat + " contrast exercised and held");
    }
    for (const auto kind : kAllFaultKinds) {
      const std::string tag = gr::to_string(kind);
      const auto it = card.fault_coverage.find(tag);
      gate.check(it != card.fault_coverage.end() && it->second > 0,
                 "fault kind " + tag + " exercised by the catalog");
    }
  }
  std::printf("\n");

  write_json(out_path, options.filter == "smoke", card, gate, options.seed, options.repeat);
  if (!gate.ok()) {
    for (const auto& name : card.determinism_mismatches) {
      std::fprintf(stderr, "determinism mismatch: %s\n", name.c_str());
    }
    return 1;
  }
  std::printf("scorecard: all invariants hold\n");
  return 0;
}
