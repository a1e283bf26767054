// Workload `catalog`: the full scenario catalog on a pool of at most nproc
// workers — what a user of this repository waits for. Every scenario must
// pass with zero timeouts and zero gate bypasses.
//
// The measured phase is scenario::run_catalog's own fan-out, written out
// here: one ThreadPool, parallel_map over indices, index i running scenario
// i % n at seed + i / n through run_scenario. Indices cover many passes;
// those claimed after the window is over are skipped, so a run ends at a
// scenario boundary, mid-pass. Each scenario's wall time is a latency
// sample. A scenario counts toward each window in proportion to the share
// of its run time that fell in the window, so window rates are not
// quantized to whole scenarios.
#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/thread_pool.hpp"
#include "genio/core/platform.hpp"
#include "genio/scenario/catalog.hpp"
#include "genio/scenario/runner.hpp"

namespace perfbench {
namespace {

namespace gs = genio::scenario;

// Family of a scenario: the first of these tags it carries, in this order
// (the des/dataplane/admission scenarios also carry broader tags).
std::string family_of(const gs::ScenarioDef& def) {
  static const std::array<std::pair<const char*, const char*>, 6> kFamilies = {{
      {"des", "des"},
      {"dataplane", "dataplane"},
      {"admission", "admission"},
      {"attack", "attack"},
      {"heal", "recovery"},
      {"chaos", "chaos"},
  }};
  for (const auto& [tag, family] : kFamilies) {
    if (def.has_tag(tag)) return family;
  }
  return "other";
}

// A catalog with fewer scenarios would read as a speed-up.
constexpr std::size_t kCatalogScenarios = 119;
// Passes the fan-out covers; more than any host finishes in a window.
constexpr std::size_t kMaxPasses = 64;

void check_verdict(WorkloadResult& r, const gs::ScenarioVerdict& v) {
  r.check(v.passed() && v.gate_bypasses == 0,
          "scenario " + v.name + " " + gs::to_string(v.outcome) +
              (v.gate_bypasses > 0 ? " with gate bypasses" : "") +
              (v.error.empty() ? "" : ": " + v.error));
}

}  // namespace

WorkloadResult run_catalog(const Options& options, Tracer* tracer) {
  WorkloadResult r;
  const auto workers = static_cast<std::size_t>(options.threads);

  // Set-up: load the catalog and stand up one hardened platform (first
  // touch of the allocator and of every lazily built table). Repeated,
  // the median is reported.
  std::vector<const gs::ScenarioDef*> selected;
  for (int rep = 0; rep < (options.tiny ? 1 : 5); ++rep) {
    const auto t0 = Clock::now();
    gs::register_builtin_catalog();
    selected = gs::ScenarioRegistry::global().match("");
    genio::core::PlatformConfig config;
    config.seed = genio::common::Rng::mix(options.seed, "catalog-setup");
    genio::core::GenioPlatform warm(config);
    r.setup_s.push_back(seconds_since(t0));
  }
  const std::size_t catalog_size = selected.size();
  r.check(catalog_size >= kCatalogScenarios,
          "catalog has " + std::to_string(catalog_size) + " scenarios, expected " +
              std::to_string(kCatalogScenarios));

  // Tiny runs (self-test, and the traced run of another workload) use one
  // scenario per family.
  if (options.tiny) {
    std::vector<const gs::ScenarioDef*> picked;
    std::map<std::string, bool> seen;
    for (const auto* def : selected) {
      const std::string family = family_of(*def);
      if (!seen[family]) {
        seen[family] = true;
        picked.push_back(def);
      }
    }
    selected = std::move(picked);
  }

  // Tiny and traced runs always finish the first pass, so that every
  // family has its time; the untraced run stops at the deadline.
  const std::size_t n = selected.size();
  const std::size_t total = n * (options.tiny ? 1 : kMaxPasses);
  const bool finish_first_pass = options.tiny || tracer != nullptr;
  std::vector<double> wall_ms(total, 0.0), start_s(total, 0.0), done_s(total, 0.0);
  genio::common::ThreadPool pool(workers);
  const auto start = Clock::now();
  const auto verdicts = pool.parallel_map<std::optional<gs::ScenarioVerdict>>(
      total, [&](std::size_t i) -> std::optional<gs::ScenarioVerdict> {
        if (!(finish_first_pass && i < n) && seconds_since(start) >= options.seconds) {
          return std::nullopt;
        }
        const auto t0 = Clock::now();
        start_s[i] = seconds_since(start);
        ScopedSpan span(tracer, "scenario.run", "scenario", i + 1);
        auto verdict = gs::run_scenario(*selected[i % n], options.seed + i / n,
                                        genio::common::SimTime::from_hours(24));
        wall_ms[i] = ms_since(t0);
        done_s[i] = seconds_since(start);
        return verdict;
      });
  const double elapsed = seconds_since(start);

  const std::size_t windows = kWindows;
  const double window_s = options.seconds / kWindows;
  r.windows.resize(windows);
  const auto window_lo = [&](std::size_t k) { return static_cast<double>(k) * window_s; };
  const auto window_hi = [&](std::size_t k) {
    return k + 1 == windows ? elapsed : std::min(window_lo(k + 1), elapsed);
  };
  for (std::size_t k = 0; k < windows; ++k) {
    r.windows[k].seconds = std::max(0.0, window_hi(k) - window_lo(k));
  }
  r.pooled_latency = true;
  std::size_t completed = 0;
  std::map<std::string, double> family_s = {{"attack", 0.0},   {"chaos", 0.0},
                                            {"recovery", 0.0}, {"admission", 0.0},
                                            {"dataplane", 0.0}, {"des", 0.0}};
  std::vector<double> first_pass_ms;
  for (std::size_t i = 0; i < total; ++i) {
    if (!verdicts[i]) continue;
    check_verdict(r, *verdicts[i]);
    ++completed;
    const double span_s = std::max(done_s[i] - start_s[i], 1e-9);
    for (std::size_t k = 0; k < windows; ++k) {
      const double overlap =
          std::min(window_hi(k), done_s[i]) - std::max(window_lo(k), start_s[i]);
      if (overlap > 0.0) r.windows[k].items += overlap / span_s;
    }
    const auto k = std::min<std::size_t>(static_cast<std::size_t>(done_s[i] / window_s),
                                         windows - 1);
    r.windows[k].latency_ms.push_back(wall_ms[i]);
    if (i < n) {
      family_s[family_of(*selected[i])] += wall_ms[i] / 1e3;
      first_pass_ms.push_back(wall_ms[i]);
    }
  }

  if (tracer != nullptr) {
    double sum_ms = 0.0;
    for (const double ms : wall_ms) sum_ms += ms;
    r.layer.push_back({"scenario.wall_ms.p50", percentile(first_pass_ms, 0.50), "ms"});
    r.layer.push_back({"scenario.wall_ms.p99", percentile(first_pass_ms, 0.99), "ms"});
    for (const auto& [family, seconds] : family_s) {
      if (family == "other") continue;
      r.layer.push_back({"scenario.family_s." + family, seconds, "s"});
    }
    r.layer.push_back({"scenario.pool_efficiency",
                       sum_ms / 1e3 / (static_cast<double>(workers) * elapsed), "ratio"});
    r.detail.emplace_back("scenario_wall_sum_s", sum_ms / 1e3);
    if (family_s.count("other") != 0) r.detail.emplace_back("family_s.other", family_s["other"]);
  }
  r.detail.emplace_back("catalog_size", static_cast<double>(catalog_size));
  r.detail.emplace_back("passes", static_cast<double>(completed) / static_cast<double>(n));
  r.detail.emplace_back("catalog_scenarios_per_s", static_cast<double>(completed) / elapsed);
  r.detail.emplace_back("catalog_pass_s", elapsed * static_cast<double>(n) /
                                              static_cast<double>(completed));
  return r;
}

}  // namespace perfbench
