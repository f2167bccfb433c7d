// The ablation experiments as registered scenarios. Both run whole
// matrices of simulations (policy × knob settings), so they are
// custom-main specs: the registry lists and launches them, the
// experiment logic keeps its imperative shape.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "skute/common/stats.h"
#include "skute/common/table.h"
#include "skute/economy/availability.h"
#include "skute/economy/proximity.h"
#include "skute/scenario/catalog.h"
#include "skute/scenario/report.h"
#include "skute/workload/geo.h"

namespace skute::scenario {

// ---------------------------------------------------------------------------
// Ablation — virtual economy vs. static successor placement.
//
// The paper positions Skute against fixed-replication key-value stores
// ([5] in the paper); this experiment quantifies the claimed advantages:
//   1. differentiated availability: the economy keeps every partition at
//      its Eq. 2 threshold; the baseline's hash-order placement misses
//      the geographic-diversity targets for a large fraction of
//      partitions;
//   2. cost awareness: rent paid per vnode-epoch is lower under the
//      economy (it drifts vnodes toward cheap servers);
//   3. load awareness: per-server query load is more even.

namespace {

struct PolicyRunResult {
  double rent_per_vnode_epoch = 0.0;
  double load_cv = 0.0;
  size_t sla_violations = 0;  // vs the paper thresholds, end state
  size_t lost = 0;            // partitions with no surviving replica
  size_t partitions = 0;
  size_t vnodes = 0;
  int recovery_epochs = -1;   // after the failure event
  uint64_t queries_dropped = 0;
  uint64_t insert_failures = 0;
};

PolicyRunResult RunOnePolicy(PlacementKind placement,
                             const RunOverrides& overrides, int epochs,
                             Epoch failure_epoch) {
  SimConfig config = SimConfig::Paper();
  // seed/backend/threads come from the shared overrides; the placement
  // policy is the experiment's independent variable, set per arm below.
  ApplyOverrides(&config, overrides, "ablation_economy_vs_static");
  config.placement = placement;
  Simulation sim(config);
  const Status init = sim.Initialize();
  if (!init.ok()) {
    std::printf("init failed: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  sim.ScheduleEvent(SimEvent::FailRandom(failure_epoch, 20));
  sim.Run(epochs);

  PolicyRunResult result;
  const auto& series = sim.metrics().series();

  // Rent and load over the last 50 epochs (or the whole run if shorter).
  double rent = 0.0;
  double vnode_epochs = 0.0;
  RunningStat cv;
  for (size_t i = series.size() > 50 ? series.size() - 50 : 0;
       i < series.size(); ++i) {
    for (size_t r = 0; r < series[i].ring_spend.size(); ++r) {
      rent += series[i].ring_spend[r];
      vnode_epochs += static_cast<double>(series[i].ring_vnodes[r]);
    }
    // Load CV across servers, averaged over rings weighted equally.
    for (double v : series[i].ring_load_cv) cv.Add(v);
    result.queries_dropped += series[i].queries_dropped;
  }
  result.rent_per_vnode_epoch = vnode_epochs > 0 ? rent / vnode_epochs : 0;
  result.load_cv = cv.mean();

  // End-state SLA violations measured against the *paper* thresholds for
  // both systems (the baseline runs with threshold 0 internally).
  // Partitions that lost every replica to the failure are unrepairable
  // by any policy and are counted separately.
  for (size_t i = 0; i < sim.rings().size(); ++i) {
    const RingId ring = sim.rings()[i];
    const double th = AvailabilityModel::ThresholdForReplicas(
        sim.config().apps[i].replicas, sim.config().confidence);
    for (const auto& p :
         sim.store().catalog().ring(ring)->partitions()) {
      ++result.partitions;
      result.vnodes += p->replica_count();
      bool any_live = false;
      for (const ReplicaInfo& r : p->replicas()) {
        const Server* s = sim.cluster().server(r.server);
        if (s != nullptr && s->online()) {
          any_live = true;
          break;
        }
      }
      if (!any_live) ++result.lost;
      if (AvailabilityModel::OfPartition(*p, sim.cluster()) < th) {
        ++result.sla_violations;
      }
    }
  }
  result.insert_failures = sim.store().insert_failures();

  // Recovery: epochs after the failure until the internal violation
  // count (against each run's own thresholds) drops back to the
  // unrepairable floor. A run too short to contain the failure event has
  // no recovery to measure (recovery_epochs stays -1).
  if (series.size() <= static_cast<size_t>(failure_epoch) ||
      failure_epoch == 0) {
    return result;
  }
  size_t pre_failure_below = 0;
  for (size_t r = 0;
       r < series[failure_epoch - 1].ring_below_threshold.size(); ++r) {
    pre_failure_below +=
        series[failure_epoch - 1].ring_below_threshold[r];
  }
  for (size_t i = static_cast<size_t>(failure_epoch); i < series.size();
       ++i) {
    size_t below = 0;
    size_t lost = 0;
    for (size_t r = 0; r < series[i].ring_below_threshold.size(); ++r) {
      below += series[i].ring_below_threshold[r];
      lost += series[i].ring_lost[r];
    }
    if (below <= pre_failure_below + lost) {
      result.recovery_epochs =
          static_cast<int>(i) - static_cast<int>(failure_epoch);
      break;
    }
  }
  return result;
}

int AblationEconomyVsStaticMain(const RunOverrides& overrides) {
  const int epochs = overrides.epochs > 0 ? overrides.epochs : 150;
  const Epoch failure_epoch = 75;
  // Epochs the economy gets to recover from the failure.
  const int recovery_budget = 40;

  if (!overrides.placement.empty()) {
    WarnIgnoredFlag("--placement",
                    "this experiment runs both placements by design");
  }
  if (!overrides.out.empty() || overrides.sample_every > 0 ||
      overrides.full_csv) {
    WarnIgnoredFlag("--out/--sample/--csv",
                    "this experiment prints a comparison table, not a "
                    "metrics CSV");
  }
  if (!overrides.metrics_json.empty()) {
    WarnIgnoredFlag("--metrics-json",
                    "this experiment compares two runs; there is no "
                    "single store to snapshot");
  }
  if (overrides.serve_port >= 0 || overrides.net_clients > 0) {
    WarnIgnoredFlag("--serve/--net-clients",
                    "this experiment runs comparison arms in-process; "
                    "there is no single store to serve");
  }

  // Overrides with a placement override stripped: both arms force their
  // own PlacementKind. (--trace needs no stripping: the runner records
  // both arms into one timeline.)
  RunOverrides arm = overrides;
  arm.placement.clear();
  arm.metrics_json.clear();
  std::printf("running economy...\n");
  const PolicyRunResult economy =
      RunOnePolicy(PlacementKind::kEconomic, arm, epochs, failure_epoch);
  std::printf("running static baseline...\n");
  const PolicyRunResult baseline = RunOnePolicy(
      PlacementKind::kStaticSuccessor, arm, epochs, failure_epoch);

  PrintSection("comparison (steady state, 20-server failure at "
               "epoch 75)");
  AsciiTable table({"metric", "economy", "static-successor"});
  table.AddRow({"partitions", AsciiTable::Num(uint64_t{economy.partitions}),
                AsciiTable::Num(uint64_t{baseline.partitions})});
  table.AddRow({"vnodes", AsciiTable::Num(uint64_t{economy.vnodes}),
                AsciiTable::Num(uint64_t{baseline.vnodes})});
  table.AddRow({"SLA violations (paper th)",
                AsciiTable::Num(uint64_t{economy.sla_violations}),
                AsciiTable::Num(uint64_t{baseline.sla_violations})});
  table.AddRow({"unrepairable (lost) partitions",
                AsciiTable::Num(uint64_t{economy.lost}),
                AsciiTable::Num(uint64_t{baseline.lost})});
  table.AddRow({"insert failures (lifetime)",
                AsciiTable::Num(uint64_t{economy.insert_failures}),
                AsciiTable::Num(uint64_t{baseline.insert_failures})});
  table.AddRow({"rent / vnode-epoch",
                AsciiTable::Num(economy.rent_per_vnode_epoch, 4),
                AsciiTable::Num(baseline.rent_per_vnode_epoch, 4)});
  table.AddRow({"per-server load CV", AsciiTable::Num(economy.load_cv, 3),
                AsciiTable::Num(baseline.load_cv, 3)});
  table.AddRow({"queries dropped (last 50 ep)",
                AsciiTable::Num(uint64_t{economy.queries_dropped}),
                AsciiTable::Num(uint64_t{baseline.queries_dropped})});
  table.AddRow({"recovery after failure (ep)",
                AsciiTable::Num(int64_t{economy.recovery_epochs}),
                AsciiTable::Num(int64_t{baseline.recovery_epochs})});
  std::printf("%s", table.ToString().c_str());

  // The checks compare steady states around the failure and its recovery
  // window; a shorter run has neither, so its checks are skipped, as the
  // runner skips a spec's checks below checks_require_epochs.
  const int require = static_cast<int>(failure_epoch) + recovery_budget;
  if (epochs <= require) {
    std::printf("run too short for the ablation_economy_vs_static summary "
                "(need > %d epochs, have %d); skipping shape checks\n",
                require, epochs);
    return 0;
  }

  ShapeChecks checks;
  checks.Check(
      "economy meets every repairable SLA, baseline misses many",
      economy.sla_violations <= economy.lost &&
          baseline.sla_violations > 10 * (economy.sla_violations + 1),
      "economy " + std::to_string(economy.sla_violations) + " (lost " +
          std::to_string(economy.lost) + ") vs baseline " +
          std::to_string(baseline.sla_violations));
  checks.Check("economy pays no more rent per vnode-epoch",
               economy.rent_per_vnode_epoch <=
                   baseline.rent_per_vnode_epoch * 1.05,
               Fmt(economy.rent_per_vnode_epoch, 4) + " vs " +
                   Fmt(baseline.rent_per_vnode_epoch, 4));
  checks.Check("economy recovers from the failure",
               economy.recovery_epochs >= 0 &&
                   economy.recovery_epochs <= recovery_budget,
               std::to_string(economy.recovery_epochs) + " epochs");
  return checks.Summarize();
}

}  // namespace

ScenarioSpec AblationEconomyVsStaticSpec() {
  ScenarioSpec spec;
  spec.name = "ablation_economy_vs_static";
  spec.title =
      "Ablation — virtual economy vs. static successor placement";
  spec.claim =
      "economic placement delivers the differentiated availability and "
      "cost/load awareness that fixed-count placement cannot";
  spec.description =
      "economy vs. Dynamo-style fixed-count baseline on the identical "
      "substrate, workload and 20-server failure";
  spec.custom_main = AblationEconomyVsStaticMain;
  return spec;
}

// ---------------------------------------------------------------------------
// Ablation — decision-process parameter sensitivity:
//   1. the utility floor (the paper's anti-churn stabilization rule),
//   2. the hysteresis window f,
//   3. Eq. 1's beta (query-load term) for load balancing,
//   4. the u(pop, g) proximity direction (literal "divide" vs corrected
//      "multiply"; see DESIGN.md).

namespace {

SimConfig MidConfig(uint64_t seed) {
  SimConfig config;
  config.grid.continents = 3;
  config.grid.countries_per_continent = 2;
  config.grid.datacenters_per_country = 1;
  config.grid.rooms_per_datacenter = 1;
  config.grid.racks_per_room = 2;
  config.grid.servers_per_rack = 4;  // 48 servers
  config.resources.storage_capacity = 4 * kGiB;
  config.resources.query_capacity_per_epoch = 1000;
  config.store.max_partition_bytes = 64 * kMB;
  config.apps = {
      AppSpec{"gold", 3, 48, 12 * kGB, 0.7},
      AppSpec{"bronze", 2, 48, 12 * kGB, 0.3},
  };
  config.base_query_rate = 2000.0;
  config.object_bytes = 500 * kKB;
  config.load_chunk_objects = 2000;
  config.seed = seed;
  return config;
}

struct SteadyState {
  double actions_per_epoch = 0.0;      // churn over the last 40 epochs
  double migrations_per_epoch = 0.0;
  double load_cv = 0.0;
  size_t sla_violations = 0;
};

SteadyState RunToSteadyState(SimConfig config, int epochs) {
  Simulation sim(std::move(config));
  const Status init = sim.Initialize();
  if (!init.ok()) {
    std::printf("init failed: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  sim.Run(epochs);
  SteadyState out;
  const auto& series = sim.metrics().series();
  RunningStat cv;
  for (size_t i = series.size() - 40; i < series.size(); ++i) {
    out.actions_per_epoch +=
        static_cast<double>(series[i].exec.applied()) / 40.0;
    out.migrations_per_epoch +=
        static_cast<double>(series[i].exec.migrations) / 40.0;
    for (double v : series[i].ring_load_cv) cv.Add(v);
  }
  out.load_cv = cv.mean();
  for (size_t r = 0; r < series.back().ring_below_threshold.size(); ++r) {
    out.sla_violations += series.back().ring_below_threshold[r];
  }
  return out;
}

/// Mean client->replica diversity over all replicas of a ring (lower =
/// closer to the clients).
double MeanPlacementDiversity(Simulation& sim, RingId ring,
                              const ClientMix& mix) {
  RunningStat stat;
  for (const auto& p : sim.store().catalog().ring(ring)->partitions()) {
    for (const ReplicaInfo& r : p->replicas()) {
      const Server* s = sim.cluster().server(r.server);
      if (s == nullptr) continue;
      stat.Add(MeanClientDiversity(mix, s->location()));
    }
  }
  return stat.mean();
}

int AblationParamsMain(const RunOverrides& overrides) {
  const int epochs = overrides.epochs > 0 ? overrides.epochs : 120;

  if (!overrides.placement.empty()) {
    WarnIgnoredFlag("--placement",
                    "the knob sweep measures the economic policy");
  }
  if (!overrides.out.empty() || overrides.sample_every > 0 ||
      overrides.full_csv) {
    WarnIgnoredFlag("--out/--sample/--csv",
                    "this experiment prints sweep tables, not a metrics "
                    "CSV");
  }
  if (!overrides.metrics_json.empty()) {
    WarnIgnoredFlag("--metrics-json",
                    "the sweep runs many simulations; there is no single "
                    "store to snapshot");
  }
  if (overrides.serve_port >= 0 || overrides.net_clients > 0) {
    WarnIgnoredFlag("--serve/--net-clients",
                    "the sweep runs many simulations; there is no single "
                    "store to serve");
  }
  // seed/backend/threads apply to every run of the sweep uniformly.
  RunOverrides arm = overrides;
  arm.placement.clear();
  arm.metrics_json.clear();
  auto sweep_config = [&arm] {
    SimConfig config = MidConfig(arm.seed);
    ApplyOverrides(&config, arm, "ablation_params");
    return config;
  };

  ShapeChecks checks;

  // 1. Utility floor on/off.
  PrintSection("utility floor (paper's stabilization rule)");
  SimConfig with_floor = sweep_config();
  SimConfig without_floor = sweep_config();
  without_floor.store.decision.utility_floor = false;
  const SteadyState floor_on = RunToSteadyState(std::move(with_floor),
                                                epochs);
  const SteadyState floor_off =
      RunToSteadyState(std::move(without_floor), epochs);
  {
    AsciiTable t({"floor", "migrations/epoch", "actions/epoch",
                  "sla violations"});
    t.AddRow({"on", AsciiTable::Num(floor_on.migrations_per_epoch, 2),
              AsciiTable::Num(floor_on.actions_per_epoch, 2),
              AsciiTable::Num(uint64_t{floor_on.sla_violations})});
    t.AddRow({"off", AsciiTable::Num(floor_off.migrations_per_epoch, 2),
              AsciiTable::Num(floor_off.actions_per_epoch, 2),
              AsciiTable::Num(uint64_t{floor_off.sla_violations})});
    std::printf("%s", t.ToString().c_str());
  }
  checks.Check("utility floor curbs steady-state migration churn",
               floor_on.migrations_per_epoch <=
                   floor_off.migrations_per_epoch + 0.5,
               Fmt(floor_on.migrations_per_epoch) + " vs " +
                   Fmt(floor_off.migrations_per_epoch) +
                   " migrations/epoch");

  // 2. Hysteresis window f.
  PrintSection("balance window f (decision hysteresis)");
  AsciiTable ftable({"f", "actions/epoch", "migrations/epoch",
                     "sla violations"});
  double churn_f1 = 0.0, churn_f8 = 0.0;
  for (int f : {1, 2, 4, 8}) {
    SimConfig config = sweep_config();
    config.store.decision.balance_window = f;
    const SteadyState result = RunToSteadyState(std::move(config), epochs);
    ftable.AddRow({AsciiTable::Num(int64_t{f}),
                   AsciiTable::Num(result.actions_per_epoch, 2),
                   AsciiTable::Num(result.migrations_per_epoch, 2),
                   AsciiTable::Num(uint64_t{result.sla_violations})});
    if (f == 1) churn_f1 = result.actions_per_epoch;
    if (f == 8) churn_f8 = result.actions_per_epoch;
  }
  std::printf("%s", ftable.ToString().c_str());
  checks.Check("longer hysteresis does not increase churn",
               churn_f8 <= churn_f1 + 0.5,
               "f=1: " + Fmt(churn_f1) + ", f=8: " + Fmt(churn_f8) +
                   " actions/epoch");

  // 3. Eq. 1 beta (query-load pricing term).
  PrintSection("Eq. 1 beta (query-load term)");
  AsciiTable btable({"beta", "load CV", "sla violations"});
  double cv_b0 = 0.0, cv_b4 = 0.0;
  for (double beta : {0.0, 1.0, 4.0}) {
    SimConfig config = sweep_config();
    config.pricing.beta = beta;
    const SteadyState result = RunToSteadyState(std::move(config), epochs);
    btable.AddRow({AsciiTable::Num(beta, 1),
                   AsciiTable::Num(result.load_cv, 3),
                   AsciiTable::Num(uint64_t{result.sla_violations})});
    if (beta == 0.0) cv_b0 = result.load_cv;
    if (beta == 4.0) cv_b4 = result.load_cv;
  }
  std::printf("%s", btable.ToString().c_str());
  checks.Check("query-load pricing does not hurt balance",
               cv_b4 <= cv_b0 * 1.25 + 0.05,
               "beta=0 CV " + Fmt(cv_b0, 3) + ", beta=4 CV " +
                   Fmt(cv_b4, 3));

  // 4. Proximity direction under a hotspot client mix.
  PrintSection("u(pop,g) direction with a single-country hotspot");
  double diversity_corrected = 0.0, diversity_literal = 0.0;
  for (const bool literal : {false, true}) {
    SimConfig config = sweep_config();
    config.store.decision.utility.divide_by_proximity = literal;
    Simulation sim(std::move(config));
    const Status init = sim.Initialize();
    if (!init.ok()) {
      std::printf("init failed: %s\n", init.ToString().c_str());
      return 1;
    }
    const ClientMix mix =
        HotspotMix(sim.config().grid, Location::Of(0, 0, 0, 0, 0, 0), 0.9);
    for (RingId ring : sim.rings()) {
      (void)sim.store().SetClientMix(ring, mix);
    }
    sim.Run(epochs);
    const double diversity =
        MeanPlacementDiversity(sim, sim.rings()[0], mix);
    if (literal) {
      diversity_literal = diversity;
    } else {
      diversity_corrected = diversity;
    }
  }
  {
    AsciiTable t({"u(pop,g) reading", "mean client->replica diversity"});
    t.AddRow({"multiply by g (corrected)",
              AsciiTable::Num(diversity_corrected, 2)});
    t.AddRow({"divide by g (literal)",
              AsciiTable::Num(diversity_literal, 2)});
    std::printf("%s", t.ToString().c_str());
  }
  checks.Check("corrected proximity places replicas no farther than "
               "the literal reading",
               diversity_corrected <= diversity_literal + 2.0,
               Fmt(diversity_corrected, 2) + " vs " +
                   Fmt(diversity_literal, 2));

  return checks.Summarize();
}

}  // namespace

ScenarioSpec AblationParamsSpec() {
  ScenarioSpec spec;
  spec.name = "ablation_params";
  spec.title = "Ablation — decision-process parameter sensitivity";
  spec.claim =
      "the utility floor stops migration churn; hysteresis f trades "
      "adaptation speed for stability; beta>0 balances query load; the "
      "corrected proximity pulls replicas toward clients";
  spec.description =
      "Section II-C knob sweep on a 48-server cloud: utility floor, "
      "hysteresis window f, Eq. 1 beta, proximity direction";
  spec.custom_main = AblationParamsMain;
  return spec;
}

}  // namespace skute::scenario
