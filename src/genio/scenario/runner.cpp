#include "genio/scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "genio/common/thread_pool.hpp"

namespace genio::scenario {

namespace {

ScenarioVerdict run_in_context(const ScenarioDef& def, std::uint64_t run_seed,
                               common::SimTime budget) {
  ScenarioContext ctx(def.name, run_seed, budget);
  try {
    def.fn(ctx);
    return ctx.verdict(Outcome::kPass, "");
  } catch (const ScenarioTimeout&) {
    return ctx.verdict(Outcome::kTimeout,
                       "sim-time budget exceeded after " +
                           std::to_string(ctx.consumed().seconds()) + "s");
  } catch (const std::exception& e) {
    return ctx.verdict(Outcome::kFail, e.what());
  } catch (...) {
    return ctx.verdict(Outcome::kFail, "unknown exception");
  }
}

}  // namespace

ScenarioVerdict run_scenario(const ScenarioDef& def, std::uint64_t run_seed,
                             common::SimTime default_budget) {
  const common::SimTime budget =
      def.budget > common::SimTime{} ? def.budget : default_budget;
  const auto start = std::chrono::steady_clock::now();
  ScenarioVerdict verdict = run_in_context(def, run_seed, budget);
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // The scenario's platform is gone, but glibc keeps its freed pages in
  // the worker thread's malloc arena. Without giving them back, each pool
  // worker's arena grows to its largest scenario's footprint (16-18 MB,
  // under 1 MB of it in use), and peak RSS climbs with how many scenarios
  // run rather than with what any one of them holds. Under ASan or TSan
  // the sanitizer's allocator owns the heap, so there is nothing to trim.
  malloc_trim(0);
#endif
  verdict.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return verdict;
}

RunSummary run_catalog(const ScenarioRegistry& registry, const RunOptions& options) {
  const auto selected = registry.match(options.filter);
  const int repeats = std::max(1, options.repeat);

  RunSummary summary;
  summary.selected = selected.size();

  common::ThreadPool pool(options.workers);
  const std::size_t total = selected.size() * static_cast<std::size_t>(repeats);
  summary.verdicts = pool.parallel_map<ScenarioVerdict>(
      total, [&](std::size_t i) {
        const std::size_t scenario_index = i % selected.size();
        const std::uint64_t run_seed =
            options.seed + static_cast<std::uint64_t>(i / selected.size());
        return run_scenario(*selected[scenario_index], run_seed,
                            options.default_budget);
      });

  for (const auto& verdict : summary.verdicts) {
    switch (verdict.outcome) {
      case Outcome::kPass: ++summary.passed; break;
      case Outcome::kFail: ++summary.failed; break;
      case Outcome::kTimeout: ++summary.timeouts; break;
    }
    summary.gate_bypasses += verdict.gate_bypasses;
  }
  return summary;
}

bool verify_determinism(const ScenarioRegistry& registry, const RunOptions& options,
                        const RunSummary& parallel_summary, std::size_t stride,
                        std::vector<std::string>* mismatches) {
  const auto selected = registry.match(options.filter);
  if (stride == 0) stride = 1;
  bool ok = true;
  // Only the first repeat block is sampled; verdicts are in selection order.
  for (std::size_t i = 0; i < selected.size() &&
                          i < parallel_summary.verdicts.size();
       i += stride) {
    const ScenarioVerdict serial =
        run_scenario(*selected[i], options.seed, options.default_budget);
    if (serial.canonical() != parallel_summary.verdicts[i].canonical()) {
      ok = false;
      if (mismatches != nullptr) mismatches->push_back(selected[i]->name);
    }
  }
  return ok;
}

}  // namespace genio::scenario
