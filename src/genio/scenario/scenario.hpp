// The scenario fabric: a declarative registry of small named scenario
// functions, after the hostapd hwsim harness. Each scenario runs against a
// fresh GenioPlatform with a per-scenario seed derived as
// Rng::mix(run_seed, scenario_name) — derive, don't share — so hundreds of
// scenarios execute concurrently on the thread pool with verdicts that are
// byte-identical to a serial run. A sim-time watchdog bounds every
// scenario: clock advances are charged against a budget, and crossing it
// raises ScenarioTimeout, which the runner reports as Outcome::kTimeout
// instead of wedging the suite.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "genio/common/event_bus.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/core/platform.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/scenarios.hpp"

namespace genio::scenario {

enum class Outcome { kPass, kFail, kTimeout };

std::string to_string(Outcome outcome);

struct InvariantResult {
  std::string name;
  bool held = false;
  std::string detail;
};

/// Structured result of one scenario execution.
struct ScenarioVerdict {
  std::string name;
  std::uint64_t run_seed = 0;
  std::uint64_t scenario_seed = 0;
  Outcome outcome = Outcome::kFail;
  std::vector<InvariantResult> invariants;
  std::vector<std::string> evidence;
  std::string error;                  // exception text for kFail via throw
  std::uint64_t gate_bypasses = 0;    // fail-open stages seen in audited reports
  std::uint64_t events_captured = 0;  // bus events observed across platforms
  common::SimTime sim_consumed{};     // sim time charged against the budget
  double wall_ms = 0.0;               // host wall time of the run; not in canonical()

  bool passed() const { return outcome == Outcome::kPass; }
  /// Exact reproduction command for a failed scenario.
  std::string repro() const;
  /// Canonical digest string: two verdicts compare equal iff every
  /// deterministic field matches (all but wall_ms). This is what the
  /// serial-vs-parallel identity check compares.
  std::string canonical() const;
};

/// Thrown by ScenarioContext::advance() when the sim-time budget is
/// exceeded. Scenario bodies should not catch it.
struct ScenarioTimeout {};

/// Per-execution context handed to a scenario body. Owns the platforms it
/// creates (destroyed with the context, so a timeout or throw leaks
/// nothing), charges sim-time against the watchdog budget, and captures
/// every bus event each platform publishes.
class ScenarioContext {
 public:
  ScenarioContext(std::string name, std::uint64_t run_seed, common::SimTime budget);

  const std::string& name() const { return name_; }
  std::uint64_t run_seed() const { return run_seed_; }
  /// The per-scenario seed: Rng::mix(run_seed, name). Derive everything
  /// random in the scenario from this (or from rng()).
  std::uint64_t seed() const { return seed_; }
  common::Rng& rng() { return rng_; }
  common::SimTime budget() const { return budget_; }
  common::SimTime consumed() const { return consumed_; }

  /// The default platform: hardened config, seeded from this scenario.
  /// Created lazily on first use.
  core::GenioPlatform& platform();
  /// A platform with an explicit config. `config.seed` is overridden with
  /// a seed derived from (scenario_seed, platform index) so repeated runs
  /// are identical; use rng() for any extra per-scenario draws.
  core::GenioPlatform& make_platform(core::PlatformConfig config);

  /// Advance sim time on the most recently created platform (if any) and
  /// charge it against the budget. Throws ScenarioTimeout once the total
  /// charged time EXCEEDS the budget — exactly-at-budget is within it.
  void advance(common::SimTime dt);

  /// Record an invariant check. Failed checks make the verdict kFail.
  void check(const std::string& invariant, bool held, std::string detail = "");
  /// Attach a line of evidence to the verdict.
  void note(std::string line);
  /// Audit a pipeline report: tallies fail-open stages into the verdict's
  /// gate_bypasses count (the scorecard requires zero across the catalog).
  void record(const core::PipelineReport& report);

  /// Events captured so far whose topic starts with `prefix`.
  std::uint64_t events(std::string_view prefix) const;

  /// Build the verdict. kPass requires at least one invariant checked and
  /// all of them held — a scenario that asserts nothing is a failed
  /// scenario, not a quiet pass.
  ScenarioVerdict verdict(Outcome outcome, std::string error) const;

 private:
  std::string name_;
  std::uint64_t run_seed_;
  std::uint64_t seed_;
  common::Rng rng_;
  common::SimTime budget_;
  common::SimTime consumed_{};
  std::vector<std::unique_ptr<core::GenioPlatform>> platforms_;
  std::vector<InvariantResult> invariants_;
  std::vector<std::string> evidence_;
  std::uint64_t gate_bypasses_ = 0;
  std::uint64_t events_captured_ = 0;
  std::map<std::string, std::uint64_t> topic_counts_;
};

using ScenarioFn = std::function<void(ScenarioContext&)>;

struct ScenarioDef {
  std::string name;                    // unique, dot-separated ("chaos.storm.sdn-outage.light")
  std::vector<std::string> tags;       // "attack", "fault:sdn-outage", "threat:T5", "smoke", ...
  common::SimTime budget{};            // zero = use the runner default
  ScenarioFn fn;
  /// Set only on the eight T1–T8 wrappers: the legacy two-arm contrast,
  /// so run_all_scenarios() can be registry-driven.
  std::function<core::ScenarioResult()> contrast;

  bool has_tag(std::string_view tag) const;
  /// Value of the first "prefix<value>" tag, or "" ("threat:" -> "T3").
  std::string tag_value(std::string_view prefix) const;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry the GENIO_SCENARIO macros populate.
  static ScenarioRegistry& global();

  /// Throws std::invalid_argument on an empty or duplicate name.
  void add(ScenarioDef def);

  const std::vector<ScenarioDef>& all() const { return defs_; }
  std::size_t size() const { return defs_.size(); }
  const ScenarioDef* find(std::string_view name) const;
  /// Defs whose name or any tag contains `filter` (empty = all), sorted
  /// by name so selection order never depends on registration order.
  std::vector<const ScenarioDef*> match(std::string_view filter) const;

 private:
  std::vector<ScenarioDef> defs_;
};

/// Static-init registration hook used by the macros below.
struct ScenarioRegistrar {
  ScenarioRegistrar(const char* name, std::initializer_list<const char*> tags,
                    void (*body)(ScenarioContext&));
  explicit ScenarioRegistrar(void (*family)(ScenarioRegistry&));
};

}  // namespace genio::scenario

#define GENIO_SCENARIO_CAT_(a, b) a##b
#define GENIO_SCENARIO_CAT(a, b) GENIO_SCENARIO_CAT_(a, b)

/// GENIO_SCENARIO("name", "tag"...) { body using `ctx` } — registers one
/// scenario function at static-init time.
#define GENIO_SCENARIO_IMPL_(id, scenario_name, ...)                        \
  static void GENIO_SCENARIO_CAT(genio_scenario_body_, id)(                 \
      ::genio::scenario::ScenarioContext&);                                 \
  static const ::genio::scenario::ScenarioRegistrar GENIO_SCENARIO_CAT(     \
      genio_scenario_reg_, id)(scenario_name, {__VA_ARGS__},                \
                               &GENIO_SCENARIO_CAT(genio_scenario_body_,    \
                                                   id));                    \
  static void GENIO_SCENARIO_CAT(genio_scenario_body_, id)(                 \
      [[maybe_unused]] ::genio::scenario::ScenarioContext& ctx)
#define GENIO_SCENARIO(scenario_name, ...) \
  GENIO_SCENARIO_IMPL_(__COUNTER__, scenario_name, __VA_ARGS__)

/// GENIO_SCENARIO_FAMILY(ident) { loop calling registry.add(...) } — for
/// crossing dimensions into many named variants from one block.
#define GENIO_SCENARIO_FAMILY(ident)                                        \
  static void genio_scenario_family_##ident(                                \
      ::genio::scenario::ScenarioRegistry&);                                \
  static const ::genio::scenario::ScenarioRegistrar                         \
      genio_scenario_family_reg_##ident(&genio_scenario_family_##ident);    \
  static void genio_scenario_family_##ident(                                \
      [[maybe_unused]] ::genio::scenario::ScenarioRegistry& registry)
