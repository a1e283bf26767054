// Tests for the scenario fabric: seed derivation (independent child
// streams, label sensitivity), storm scheduling determinism, registry
// semantics and macro auto-registration, the sim-time watchdog edges
// (exactly-at-budget passes, over-budget times out, a throwing scenario is
// a failed scenario), catalog coverage meta-tests (every FaultKind and
// every threat T1-T8 exercised, >= 119 scenarios), the seed-1 catalog
// digests pinned entry by entry, and the 50-seed serial-vs-parallel
// verdict-identity property.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "genio/common/event_bus.hpp"
#include "genio/common/event_queue.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/resilience/chaos.hpp"
#include "genio/scenario/catalog.hpp"
#include "genio/scenario/runner.hpp"
#include "genio/scenario/scenario.hpp"

namespace gc = genio::common;
namespace gr = genio::resilience;
namespace gs = genio::scenario;

namespace {

const gr::FaultKind kAllFaultKinds[] = {
    gr::FaultKind::kPonLinkFlap,    gr::FaultKind::kPonBitErrorBurst,
    gr::FaultKind::kOnuChurn,       gr::FaultKind::kNodeCrash,
    gr::FaultKind::kKubeletStall,   gr::FaultKind::kSdnOutage,
    gr::FaultKind::kRegistryOutage, gr::FaultKind::kFeedOutage,
    gr::FaultKind::kTpmTransient,
};

// ------------------------------------------------------- seed derivation

TEST(ScenarioSeed, MixIsStableAndLabelSensitive) {
  const std::uint64_t a = gc::Rng::mix(42, "pon.rekey.onu2.calm");
  EXPECT_EQ(a, gc::Rng::mix(42, "pon.rekey.onu2.calm"));  // pure function
  EXPECT_NE(a, gc::Rng::mix(43, "pon.rekey.onu2.calm"));  // seed matters
  EXPECT_NE(a, gc::Rng::mix(42, "pon.rekey.onu2.calm "));  // label matters
  EXPECT_NE(a, gc::Rng::mix(42, "pon.rekey.onu4.calm"));
  EXPECT_NE(a, 42u);  // whitened, not a pass-through
}

TEST(ScenarioSeed, DeriveGivesIndependentStreams) {
  gc::Rng a = gc::Rng::derive(7, "stream-a");
  gc::Rng a2 = gc::Rng::derive(7, "stream-a");
  gc::Rng b = gc::Rng::derive(7, "stream-b");
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, a2.next_u64());  // same label replays the same stream
    if (va != b.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);  // sibling labels do not correlate
}

// ------------------------------------------------------ storm scheduling

struct StormRig {
  gc::SimClock clock;
  gc::EventQueue queue{&clock};
  gc::EventBus bus;
  gr::ChaosEngine engine{&queue, &bus, gc::Rng(1)};

  StormRig() {
    for (const char* target : {"alpha", "beta"}) {
      engine.register_target(gr::FaultKind::kNodeCrash, target,
                             {[](const gr::FaultSpec&) {}, [](const gr::FaultSpec&) {}});
      engine.register_target(gr::FaultKind::kSdnOutage, target,
                             {[](const gr::FaultSpec&) {}, [](const gr::FaultSpec&) {}});
    }
  }
};

std::vector<std::pair<double, double>> storm_timeline(gr::ChaosEngine& engine,
                                                      gr::FaultKind kind,
                                                      const std::string& target,
                                                      std::uint64_t seed) {
  const auto before = engine.scheduled().size();
  (void)engine.schedule_storm(kind, target, 5, gc::SimTime::from_seconds(600),
                              gc::SimTime::from_seconds(30), seed);
  std::vector<std::pair<double, double>> timeline;
  for (std::size_t i = before; i < engine.scheduled().size(); ++i) {
    const auto& spec = engine.scheduled()[i];
    timeline.emplace_back(spec.at.seconds(), spec.duration.seconds());
  }
  return timeline;
}

TEST(ScenarioStorm, TimelineDependsOnlyOnSeedKindTarget) {
  StormRig one;
  StormRig two;
  // Perturb engine two's own generator and interleave an unrelated storm:
  // neither may shift the (seed, kind, target) child stream.
  (void)two.engine.schedule_random(3, gc::SimTime::from_seconds(600),
                                   gc::SimTime::from_seconds(30));
  (void)storm_timeline(two.engine, gr::FaultKind::kSdnOutage, "beta", 99);
  const auto a = storm_timeline(one.engine, gr::FaultKind::kNodeCrash, "alpha", 7);
  const auto b = storm_timeline(two.engine, gr::FaultKind::kNodeCrash, "alpha", 7);
  EXPECT_EQ(a, b);
}

TEST(ScenarioStorm, TargetsAndKindsGetDistinctStreams) {
  StormRig rig;
  const auto alpha = storm_timeline(rig.engine, gr::FaultKind::kNodeCrash, "alpha", 7);
  const auto beta = storm_timeline(rig.engine, gr::FaultKind::kNodeCrash, "beta", 7);
  const auto sdn = storm_timeline(rig.engine, gr::FaultKind::kSdnOutage, "alpha", 7);
  EXPECT_NE(alpha, beta);
  EXPECT_NE(alpha, sdn);
  ASSERT_EQ(alpha.size(), 5u);
  for (const auto& [at, duration] : alpha) {
    EXPECT_GE(at, 0.0);
    EXPECT_LT(at, 600.0);
    EXPECT_GT(duration, 0.0);
  }
}

// ----------------------------------------------- registry + registration

TEST(ScenarioRegistry, RejectsDuplicatesAndEmptyNames) {
  gs::ScenarioRegistry registry;
  gs::ScenarioDef def;
  def.name = "test.dup";
  def.fn = [](gs::ScenarioContext&) {};
  registry.add(def);
  EXPECT_THROW(registry.add(def), std::invalid_argument);
  gs::ScenarioDef unnamed;
  unnamed.fn = [](gs::ScenarioContext&) {};
  EXPECT_THROW(registry.add(unnamed), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.find("test.dup"), nullptr);
  EXPECT_EQ(registry.find("test.missing"), nullptr);
}

TEST(ScenarioRegistry, MatchFiltersOnNameAndTagsSorted) {
  gs::ScenarioRegistry registry;
  for (const char* name : {"b.two", "a.one", "c.three"}) {
    gs::ScenarioDef def;
    def.name = name;
    def.tags = {std::string(name) == "c.three" ? "special" : "plain"};
    def.fn = [](gs::ScenarioContext&) {};
    registry.add(std::move(def));
  }
  const auto all = registry.match("");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "a.one");  // sorted, not registration order
  EXPECT_EQ(all[1]->name, "b.two");
  const auto by_tag = registry.match("special");
  ASSERT_EQ(by_tag.size(), 1u);
  EXPECT_EQ(by_tag[0]->name, "c.three");
  EXPECT_EQ(registry.match("two").size(), 1u);  // name substring
}

GENIO_SCENARIO("test.macro.registers", "test-only", "tagged:value") {
  ctx.check("trivially-true", true);
}

TEST(ScenarioRegistry, MacroAutoRegistersIntoGlobal) {
  const auto* def = gs::ScenarioRegistry::global().find("test.macro.registers");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->has_tag("test-only"));
  EXPECT_EQ(def->tag_value("tagged:"), "value");
  const auto verdict =
      gs::run_scenario(*def, 42, gc::SimTime::from_hours(1));
  EXPECT_TRUE(verdict.passed());
  EXPECT_EQ(verdict.scenario_seed, gc::Rng::mix(42, "test.macro.registers"));
}

// --------------------------------------------------------- verdict rules

gs::ScenarioDef make_def(const char* name, gs::ScenarioFn fn,
                         gc::SimTime budget = {}) {
  gs::ScenarioDef def;
  def.name = name;
  def.fn = std::move(fn);
  def.budget = budget;
  return def;
}

TEST(ScenarioVerdict, DistinctScenariosGetDistinctSeedsButRerunsAgree) {
  const auto one = gs::run_scenario(
      make_def("test.seed.one", [](gs::ScenarioContext& ctx) { ctx.check("ok", true); }),
      42, gc::SimTime::from_hours(1));
  const auto two = gs::run_scenario(
      make_def("test.seed.two", [](gs::ScenarioContext& ctx) { ctx.check("ok", true); }),
      42, gc::SimTime::from_hours(1));
  EXPECT_NE(one.scenario_seed, two.scenario_seed);
  const auto again = gs::run_scenario(
      make_def("test.seed.one", [](gs::ScenarioContext& ctx) { ctx.check("ok", true); }),
      42, gc::SimTime::from_hours(1));
  EXPECT_EQ(one.canonical(), again.canonical());
  const auto reseeded = gs::run_scenario(
      make_def("test.seed.one", [](gs::ScenarioContext& ctx) { ctx.check("ok", true); }),
      43, gc::SimTime::from_hours(1));
  EXPECT_NE(one.canonical(), reseeded.canonical());  // run seed is in the digest
}

TEST(ScenarioVerdict, NoInvariantsIsAFailure) {
  const auto verdict = gs::run_scenario(make_def("test.empty", [](gs::ScenarioContext&) {}),
                                        42, gc::SimTime::from_hours(1));
  EXPECT_EQ(verdict.outcome, gs::Outcome::kFail);
  EXPECT_NE(verdict.error.find("no invariants"), std::string::npos);
}

TEST(ScenarioVerdict, ReproLineNamesFilterAndSeed) {
  const auto verdict = gs::run_scenario(
      make_def("test.repro", [](gs::ScenarioContext& ctx) { ctx.check("x", false); }),
      1234, gc::SimTime::from_hours(1));
  EXPECT_EQ(verdict.outcome, gs::Outcome::kFail);
  EXPECT_EQ(verdict.repro(), "scenario_runner --filter 'test.repro' --seed 1234");
}

// ------------------------------------------------------- watchdog edges

TEST(ScenarioWatchdog, ExactlyAtBudgetPasses) {
  const auto verdict = gs::run_scenario(
      make_def("test.watchdog.exact",
               [](gs::ScenarioContext& ctx) {
                 ctx.advance(gc::SimTime::from_seconds(30));
                 ctx.advance(gc::SimTime::from_seconds(30));  // lands exactly on budget
                 ctx.check("still-alive", true);
               },
               gc::SimTime::from_seconds(60)),
      42, gc::SimTime::from_hours(1));
  EXPECT_TRUE(verdict.passed());
  EXPECT_EQ(verdict.sim_consumed, gc::SimTime::from_seconds(60));
}

TEST(ScenarioWatchdog, OverBudgetReportsTimeout) {
  const auto verdict = gs::run_scenario(
      make_def("test.watchdog.over",
               [](gs::ScenarioContext& ctx) {
                 auto& platform = ctx.platform();  // owned by the context
                 (void)platform;
                 for (int i = 0; i < 100; ++i) ctx.advance(gc::SimTime::from_seconds(30));
                 ctx.check("unreachable", true);
               },
               gc::SimTime::from_seconds(90)),
      42, gc::SimTime::from_hours(1));
  EXPECT_EQ(verdict.outcome, gs::Outcome::kTimeout);
  EXPECT_FALSE(verdict.passed());
}

TEST(ScenarioWatchdog, ThrowingScenarioIsFailedNotFatal) {
  const auto verdict = gs::run_scenario(
      make_def("test.watchdog.throws",
               [](gs::ScenarioContext& ctx) {
                 ctx.check("reached", true);
                 throw std::runtime_error("simulated scenario bug");
               }),
      42, gc::SimTime::from_hours(1));
  EXPECT_EQ(verdict.outcome, gs::Outcome::kFail);
  EXPECT_NE(verdict.error.find("simulated scenario bug"), std::string::npos);
}

// --------------------------------------------------- catalog meta-tests

// The documented floor: scenario_runner's scorecard requires 119.
TEST(ScenarioCatalog, HoldsAtLeast119Scenarios) {
  gs::register_builtin_catalog();
  EXPECT_GE(gs::ScenarioRegistry::global().size(), 119u);
}

// Behaviour pin: every built-in scenario's canonical verdict digest at run
// seed 1 must equal the checked-in list. Test-only registrations are left
// out so the list holds the catalog alone.
TEST(ScenarioCatalog, SeedOneDigestsArePinned) {
  static const char* const kPinned[] = {
#include "catalog_digests_seed1.inc"
  };
  gs::register_builtin_catalog();
  gs::ScenarioRegistry builtin;
  for (const auto& def : gs::ScenarioRegistry::global().all()) {
    if (!def.has_tag("test-only")) builtin.add(def);
  }
  gs::RunOptions options;
  options.seed = 1;
  options.workers = 4;
  const auto summary = gs::run_catalog(builtin, options);

  std::string current;
  for (const auto& verdict : summary.verdicts) {
    current += "\"" + verdict.canonical() + "\",\n";
  }
  ASSERT_EQ(summary.verdicts.size(), std::size(kPinned)) << "current list:\n" << current;
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    EXPECT_EQ(summary.verdicts[i].canonical(), kPinned[i]) << "entry " << i;
  }
  EXPECT_FALSE(HasFailure()) << "current list:\n" << current;
}

TEST(ScenarioCatalog, EveryFaultKindIsExercised) {
  gs::register_builtin_catalog();
  std::set<std::string> covered;
  for (const auto& def : gs::ScenarioRegistry::global().all()) {
    const auto fault = def.tag_value("fault:");
    if (!fault.empty()) covered.insert(fault);
  }
  for (const auto kind : kAllFaultKinds) {
    EXPECT_TRUE(covered.count(gr::to_string(kind)) == 1)
        << "no scenario exercises fault kind " << gr::to_string(kind);
  }
}

TEST(ScenarioCatalog, EveryThreatHasExactlyOneContrastWrapper) {
  gs::register_builtin_catalog();
  std::set<std::string> threats;
  std::size_t contrasts = 0;
  for (const auto& def : gs::ScenarioRegistry::global().all()) {
    if (def.contrast) {
      ++contrasts;
      threats.insert(def.tag_value("threat:"));
    }
  }
  EXPECT_EQ(contrasts, 8u);
  for (int t = 1; t <= 8; ++t) {
    EXPECT_TRUE(threats.count("T" + std::to_string(t)) == 1)
        << "missing contrast wrapper for T" << t;
  }
}

// ------------------------------------- serial-vs-parallel verdict identity

TEST(ScenarioProperty, FiftySeedsSerialAndParallelVerdictsIdentical) {
  gs::register_builtin_catalog();
  gs::RunOptions parallel_options;
  parallel_options.filter = "quick";
  parallel_options.seed = 1000;
  parallel_options.repeat = 50;  // run seeds 1000..1049
  parallel_options.workers = 4;
  const auto parallel =
      gs::run_catalog(gs::ScenarioRegistry::global(), parallel_options);
  ASSERT_GT(parallel.selected, 0u);

  gs::RunOptions serial_options = parallel_options;
  serial_options.workers = 1;
  const auto serial = gs::run_catalog(gs::ScenarioRegistry::global(), serial_options);

  ASSERT_EQ(parallel.verdicts.size(), serial.verdicts.size());
  for (std::size_t i = 0; i < parallel.verdicts.size(); ++i) {
    EXPECT_EQ(parallel.verdicts[i].canonical(), serial.verdicts[i].canonical())
        << parallel.verdicts[i].name << " diverged at execution " << i;
  }
  EXPECT_TRUE(parallel.all_passed())
      << parallel.failed << " failed, " << parallel.timeouts << " timed out";
}

}  // namespace
