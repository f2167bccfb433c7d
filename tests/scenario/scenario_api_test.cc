// The declarative scenario API: registry lookup, override parsing and
// application, the runner lifecycle, and the fig3 golden test proving a
// ported spec reproduces the legacy hand-rolled wiring bit for bit.

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "skute/scenario/catalog.h"
#include "skute/scenario/registry.h"
#include "skute/scenario/runner.h"
#include "testutil/csv_mask.h"
#include "testutil/temp_dir.h"

namespace skute::scenario {
namespace {

using testutil::MaskTimingColumns;

// argv helper: gtest owns argv[0].
std::vector<char*> Argv(std::vector<std::string>& args) {
  static std::string binary = "test";
  std::vector<char*> argv;
  argv.push_back(binary.data());
  for (std::string& arg : args) argv.push_back(arg.data());
  return argv;
}

ScenarioSpec TinySpec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.title = "tiny test scenario";
  spec.claim = "none";
  spec.description = "test";
  spec.config = [] { return SimConfig::Tiny(); };
  spec.default_epochs = 3;
  return spec;
}

TEST(ScenarioRegistryTest, UnknownNameIsNotFound) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register(TinySpec("a")).ok());
  const auto found = registry.Find("definitely_not_registered");
  ASSERT_FALSE(found.ok());
  EXPECT_TRUE(found.status().IsNotFound());
  // The error names the scenarios that do exist.
  EXPECT_NE(found.status().message().find("a"), std::string::npos);
}

TEST(ScenarioRegistryTest, DuplicateAndUnnamedRegistrationsRejected) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register(TinySpec("dup")).ok());
  EXPECT_TRUE(registry.Register(TinySpec("dup")).IsAlreadyExists());
  EXPECT_TRUE(registry.Register(TinySpec("")).IsInvalidArgument());
}

TEST(ScenarioRegistryTest, ListIsNameSorted) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register(TinySpec("zeta")).ok());
  ASSERT_TRUE(registry.Register(TinySpec("alpha")).ok());
  const auto all = registry.List();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "zeta");
}

TEST(ScenarioRegistryTest, BuiltinCatalogHasPortedAndComposedScenarios) {
  RegisterBuiltinScenarios();
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  EXPECT_GE(registry.size(), 10u);
  // All seven ported paper/ablation scenarios...
  for (const char* name :
       {"fig2_startup_convergence", "fig3_elasticity", "fig4_slashdot",
        "fig5_saturation", "overhead_analysis", "ablation_params",
        "ablation_economy_vs_static"}) {
    EXPECT_TRUE(registry.Find(name).ok()) << name;
  }
  // ...plus the composed ones the paper never ran.
  for (const char* name : {"flash_crowd_failure", "rolling_churn",
                           "hetero_backend_fleet", "steady_state"}) {
    EXPECT_TRUE(registry.Find(name).ok()) << name;
  }
  // Registration is idempotent...
  const size_t before = registry.size();
  RegisterBuiltinScenarios();
  EXPECT_EQ(registry.size(), before);
  // ...and recoverable: a Clear() (test isolation) followed by another
  // call re-populates the builtins.
  registry.Clear();
  RegisterBuiltinScenarios();
  EXPECT_EQ(registry.size(), before);
  EXPECT_TRUE(registry.Find("fig3_elasticity").ok());
}

TEST(RunOverridesTest, ParseRoundTripsEveryFlag) {
  std::vector<std::string> args = {
      "--epochs=77",        "--seed=123",
      "--sample=4",         "--csv",
      "--threads=3",        "--backend=durable",
      "--placement=static", "--out=/tmp/x.csv",
      "--trace=/tmp/t.json", "--metrics-json=/tmp/m.json"};
  auto argv = Argv(args);
  const RunOverrides o =
      ParseOverrides(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(o.epochs, 77);
  EXPECT_EQ(o.seed, 123u);
  EXPECT_EQ(o.sample_every, 4);
  EXPECT_TRUE(o.full_csv);
  EXPECT_EQ(o.threads, 3);
  EXPECT_EQ(o.backend, "durable");
  EXPECT_EQ(o.placement, "static");
  EXPECT_EQ(o.out, "/tmp/x.csv");
  EXPECT_EQ(o.trace, "/tmp/t.json");
  EXPECT_EQ(o.metrics_json, "/tmp/m.json");
}

TEST(RunOverridesTest, DefaultsMatchTheLegacyBenchDefaults) {
  std::vector<std::string> args = {};
  auto argv = Argv(args);
  const RunOverrides o =
      ParseOverrides(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(o.epochs, -1);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.sample_every, 0);
  EXPECT_FALSE(o.full_csv);
  EXPECT_EQ(o.threads, 0);
  EXPECT_TRUE(o.backend.empty());
  EXPECT_TRUE(o.placement.empty());
  EXPECT_TRUE(o.out.empty());
  EXPECT_TRUE(o.trace.empty());
  EXPECT_TRUE(o.metrics_json.empty());
}

TEST(RunOverridesTest, ApplyOverridesLandsOnTheConfig) {
  RunOverrides o;
  o.seed = 99;
  o.threads = 4;
  o.backend = "durable";
  o.placement = "static";
  SimConfig config = SimConfig::Tiny();
  ApplyOverrides(&config, o, "scenario_api_test");
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.store.epoch.threads, 4);
  EXPECT_EQ(config.backend.kind, BackendKind::kDurable);
  EXPECT_EQ(config.placement, PlacementKind::kStaticSuccessor);
}

TEST(RunOverridesTest, EmptyOverridesKeepSpecDefaults) {
  RunOverrides o;  // defaults
  SimConfig config = SimConfig::Tiny();
  config.store.epoch.threads = 2;
  config.placement = PlacementKind::kEconomic;
  ApplyOverrides(&config, o, "scenario_api_test");
  EXPECT_EQ(config.seed, 42u);                 // the only always-set field
  EXPECT_EQ(config.store.epoch.threads, 2);    // untouched
  EXPECT_EQ(config.backend.kind, BackendKind::kMemory);
  EXPECT_EQ(config.placement, PlacementKind::kEconomic);
}

TEST(ScenarioRunnerTest, LifecycleRunsTimelineAndEvaluatesChecks) {
  ScenarioSpec spec = TinySpec("lifecycle");
  spec.default_epochs = 4;
  spec.timeline = {SimEvent::AddServers(1, 2)};
  // before_run is a reporting hook: a non-printed run must skip it.
  bool before_run_called = false;
  spec.before_run = [&](const ScenarioContext&) {
    before_run_called = true;
  };
  spec.checks = {
      {"timeline applied",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         return {ctx.sim.cluster().size() == 18, "cluster size"};
       }},
      {"always fails",
       [](const ScenarioContext&) -> ShapeCheckResult {
         return {false, "by construction"};
       }},
  };
  ScenarioRunner::Options options;
  options.print = false;
  const auto outcome =
      ScenarioRunner::Execute(spec, RunOverrides{}, options);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_FALSE(before_run_called);
  EXPECT_EQ(outcome.epochs_run, 4);
  EXPECT_EQ(outcome.failed_checks, 1);
}

TEST(ScenarioRunnerTest, StopWhenEndsTheRunEarly) {
  ScenarioSpec spec = TinySpec("early_stop");
  spec.default_epochs = 50;
  spec.stop_when = [](const Simulation& sim) {
    return sim.metrics().series().size() >= 5;
  };
  ScenarioRunner::Options options;
  options.print = false;
  const auto outcome =
      ScenarioRunner::Execute(spec, RunOverrides{}, options);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.epochs_run, 5);
}

TEST(ScenarioRunnerTest, ShortRunSkipsChecksUniformly) {
  ScenarioSpec spec = TinySpec("short_run");
  spec.default_epochs = 3;
  spec.checks_require_epochs = 10;
  spec.checks = {{"would fail",
                  [](const ScenarioContext&) -> ShapeCheckResult {
                    return {false, "must not be evaluated"};
                  }}};
  ScenarioRunner::Options options;
  options.print = false;
  const auto outcome =
      ScenarioRunner::Execute(spec, RunOverrides{}, options);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.failed_checks, 0);
}

TEST(ScenarioRunnerTest, EarlyStopStillEvaluatesChecks) {
  // Like fig5_saturation: a full-length run that stop_when ends before
  // checks_require_epochs is still judged, so a run that stops early
  // because something broke cannot pass by skipping its checks.
  ScenarioSpec spec = TinySpec("early_stop_checks");
  spec.default_epochs = 50;
  spec.checks_require_epochs = 10;
  spec.stop_when = [](const Simulation& sim) {
    return sim.metrics().series().size() >= 5;
  };
  spec.checks = {{"fails when evaluated",
                  [](const ScenarioContext&) -> ShapeCheckResult {
                    return {false, "evaluated"};
                  }}};
  ScenarioRunner::Options options;
  options.print = false;
  const auto outcome =
      ScenarioRunner::Execute(spec, RunOverrides{}, options);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.epochs_run, 5);
  EXPECT_EQ(outcome.failed_checks, 1);

  RunOverrides shorter;
  shorter.epochs = 10;  // planned at the threshold: skipped
  EXPECT_EQ(ScenarioRunner::Execute(spec, shorter, options).failed_checks,
            0);
}

TEST(ScenarioRunnerTest, EpochsOverrideBeatsSpecDefault) {
  ScenarioSpec spec = TinySpec("override_epochs");
  spec.default_epochs = 3;
  RunOverrides o;
  o.epochs = 7;
  ScenarioRunner::Options options;
  options.print = false;
  const auto outcome = ScenarioRunner::Execute(spec, o, options);
  EXPECT_EQ(outcome.epochs_run, 7);
}

TEST(ScenarioRunnerTest, OutFlagWritesTheFullCsv) {
  testutil::ScopedTempDir tmp("scenario_out");
  const std::string path = tmp.Sub("run.csv");
  ScenarioSpec spec = TinySpec("out_file");
  RunOverrides o;
  o.out = path;
  std::ostringstream captured;
  ScenarioRunner::Options options;
  options.print = false;
  options.csv_capture = &captured;
  const auto outcome = ScenarioRunner::Execute(spec, o, options);
  ASSERT_TRUE(outcome.status.ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream from_file;
  from_file << in.rdbuf();
  EXPECT_FALSE(from_file.str().empty());
  EXPECT_EQ(from_file.str(), captured.str());
}

TEST(ScenarioRunnerTest, UnwritableOutPathIsAnError) {
  ScenarioSpec spec = TinySpec("bad_out");
  RunOverrides o;
  o.out = "/nonexistent_dir_skute/run.csv";
  ScenarioRunner::Options options;
  options.print = false;
  const auto outcome = ScenarioRunner::Execute(spec, o, options);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsUnavailable());
}

TEST(ScenarioRunnerTest, CustomMainSpecsRefuseExecute) {
  RegisterBuiltinScenarios();
  const auto spec =
      ScenarioRegistry::Global().Find("ablation_params");
  ASSERT_TRUE(spec.ok());
  const auto outcome = ScenarioRunner::Execute(**spec, RunOverrides{});
  EXPECT_TRUE(outcome.status.IsFailedPrecondition());
}

// The golden test of the port: the fig3 spec, re-scaled to
// SimConfig::Tiny(), must produce the same metrics series — the same
// CSV, byte for byte — as the legacy hand-rolled wiring the old
// fig3_elasticity main() did (same seed, same events, same epochs).
TEST(ScenarioGoldenTest, Fig3SpecMatchesLegacyWiringAtTinyScale) {
  constexpr uint64_t kSeed = 7;
  constexpr int kEpochs = 120;  // crosses the epoch-100 arrival event

  // Legacy wiring, exactly as the pre-redesign bench main wrote it.
  std::ostringstream legacy_csv;
  {
    SimConfig config = SimConfig::Tiny();
    config.seed = kSeed;
    Simulation sim(config);
    ASSERT_TRUE(sim.Initialize().ok());
    sim.ScheduleEvent(SimEvent::AddServers(100, 20));
    sim.ScheduleEvent(SimEvent::FailRandom(200, 20));
    sim.Run(kEpochs);
    sim.metrics().WriteCsv(&legacy_csv);
  }

  // The registered spec, config swapped to the same Tiny scale.
  ScenarioSpec spec = Fig3ElasticitySpec();
  spec.config = [] { return SimConfig::Tiny(); };
  RunOverrides o;
  o.seed = kSeed;
  o.epochs = kEpochs;
  std::ostringstream spec_csv;
  ScenarioRunner::Options options;
  options.print = false;
  options.csv_capture = &spec_csv;
  const auto outcome = ScenarioRunner::Execute(spec, o, options);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.epochs_run, kEpochs);

  ASSERT_FALSE(spec_csv.str().empty());
  EXPECT_EQ(MaskTimingColumns(spec_csv.str()),
            MaskTimingColumns(legacy_csv.str()));
}

// The SimConfig per-server backend hook behind hetero_backend_fleet:
// initial servers and event-driven arrivals both go through it.
TEST(PerServerBackendHookTest, AppliesToInitialAndArrivingServers) {
  SimConfig config = SimConfig::Tiny();
  config.seed = 5;
  config.backend_for_server =
      [](size_t index) -> std::optional<BackendConfig> {
    if (index % 2 == 1) {
      BackendConfig durable;
      durable.kind = BackendKind::kDurable;
      return durable;
    }
    return std::nullopt;
  };
  Simulation sim(config);
  ASSERT_TRUE(sim.Initialize().ok());
  sim.ScheduleEvent(SimEvent::AddServers(0, 2));
  sim.Step();
  ASSERT_EQ(sim.cluster().size(), 18u);
  for (ServerId id = 0; id < sim.cluster().size(); ++id) {
    const BackendKind expected =
        id % 2 == 1 ? BackendKind::kDurable : BackendKind::kMemory;
    EXPECT_EQ(sim.cluster().server(id)->backend().kind, expected)
        << "server " << id;
  }
}

}  // namespace
}  // namespace skute::scenario
