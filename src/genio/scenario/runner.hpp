// Executes the scenario catalog on the thread pool. Every scenario
// gets a fresh ScenarioContext (own platform, own derived seed), so the
// pool may interleave them arbitrarily without changing any verdict —
// verify_determinism() re-runs a sample serially and compares canonical
// digests to prove it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genio/common/sim_clock.hpp"
#include "genio/scenario/scenario.hpp"

namespace genio::scenario {

struct RunOptions {
  std::uint64_t seed = 42;       // run seed; per-scenario = mix(seed, name)
  std::string filter;            // substring over name/tags; empty = all
  int repeat = 1;                // run seeds seed .. seed+repeat-1
  std::size_t workers = 0;       // 0 = ThreadPool::recommended_workers()
  common::SimTime default_budget = common::SimTime::from_hours(24);
};

struct RunSummary {
  std::vector<ScenarioVerdict> verdicts;  // selection order x repeats
  std::size_t selected = 0;               // distinct scenarios matched
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t timeouts = 0;
  std::uint64_t gate_bypasses = 0;

  bool all_passed() const { return failed == 0 && timeouts == 0; }
};

/// Run one scenario to a verdict. ScenarioTimeout becomes kTimeout; any
/// other exception becomes kFail with the exception text — a throwing
/// scenario is a failed scenario, never a dead process. The verdict's
/// wall_ms is the host time the whole call took.
ScenarioVerdict run_scenario(const ScenarioDef& def, std::uint64_t run_seed,
                             common::SimTime default_budget);

/// Run every matching scenario (times `repeat` seeds) on the pool.
RunSummary run_catalog(const ScenarioRegistry& registry, const RunOptions& options);

/// Re-run every `stride`-th selected scenario serially and compare its
/// canonical digest against the parallel verdict. Returns true iff every
/// sampled digest matches; mismatching names are appended to `mismatches`
/// if non-null.
bool verify_determinism(const ScenarioRegistry& registry, const RunOptions& options,
                        const RunSummary& parallel_summary, std::size_t stride,
                        std::vector<std::string>* mismatches = nullptr);

}  // namespace genio::scenario
