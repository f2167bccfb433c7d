// The paper's Section III/IV experiments (Figs. 2-5 and the future-work
// overhead analysis) as registered ScenarioSpecs. The bench/ binaries of
// the same names are thin wrappers over these specs; the scenario logic
// — config deltas, timelines, summaries, shape checks — lives here as
// data the registry can list, sweep and compose.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "skute/common/table.h"
#include "skute/obs/adapters.h"
#include "skute/obs/metrics_registry.h"
#include "skute/scenario/catalog.h"
#include "skute/scenario/report.h"
#include "skute/workload/geo.h"

namespace skute::scenario {

namespace {

/// Sum of `ring_below_threshold` over all rings of one snapshot.
size_t BelowTotal(const EpochSnapshot& snap) {
  size_t below = 0;
  for (size_t r = 0; r < snap.ring_below_threshold.size(); ++r) {
    below += snap.ring_below_threshold[r];
  }
  return below;
}

/// Action volume in the first and last tenth of the series.
struct ActionWindows {
  uint64_t early = 0;
  uint64_t late = 0;
};
ActionWindows EarlyLateActions(const std::vector<EpochSnapshot>& series) {
  ActionWindows w;
  const size_t tenth = series.size() / 10;
  for (size_t i = 0; i < tenth; ++i) {
    w.early += series[i].exec.applied();
    w.late += series[series.size() - 1 - i].exec.applied();
  }
  return w;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fig. 2 — startup convergence.

ScenarioSpec Fig2StartupConvergenceSpec() {
  ScenarioSpec spec;
  spec.name = "fig2_startup_convergence";
  spec.title =
      "Fig. 2 — Replication process at startup (vnodes per server)";
  spec.claim =
      "the system soon reaches equilibrium, where fewer virtual nodes "
      "reside at expensive servers";
  spec.description =
      "paper Section III-B: watch the startup transient replicate and "
      "migrate 500 GB to equilibrium on 200 servers";
  spec.config = [] {
    SimConfig config = SimConfig::Paper();
    // Fig. 2 watches the startup transient itself: load everything up
    // front, no interleaved decision epochs.
    config.load_chunk_objects = 0;
    return config;
  };
  spec.default_epochs = 300;
  spec.before_run = [](const ScenarioContext& ctx) {
    std::printf("servers=%zu partitions=%zu initial_vnodes=%zu "
                "storage_util=%.3f\n",
                ctx.sim.cluster().size(),
                ctx.sim.store().catalog().total_partitions(),
                ctx.sim.store().catalog().total_vnodes(),
                ctx.sim.cluster().StorageUtilization());
  };
  spec.summarize = [](const ScenarioContext& ctx) {
    const auto& series = ctx.sim.metrics().series();
    const EpochSnapshot& first = series.front();
    const EpochSnapshot& last = series.back();
    PrintSection("summary");
    std::printf("epoch 0:    vnodes=%zu cheap_mean=%s expensive_mean=%s\n",
                first.total_vnodes, Fmt(first.vnodes_mean_cheap).c_str(),
                Fmt(first.vnodes_mean_expensive).c_str());
    std::printf("epoch %d:  vnodes=%zu cheap_mean=%s expensive_mean=%s "
                "min=%s max=%s cv=%s\n",
                ctx.epochs - 1, last.total_vnodes,
                Fmt(last.vnodes_mean_cheap).c_str(),
                Fmt(last.vnodes_mean_expensive).c_str(),
                Fmt(last.vnodes_min, 0).c_str(),
                Fmt(last.vnodes_max, 0).c_str(),
                Fmt(last.vnodes_cv).c_str());
    const ActionWindows actions = EarlyLateActions(series);
    const size_t tenth = series.size() / 10;
    std::printf("actions in first %zu epochs: %llu; in last %zu epochs: "
                "%llu\n",
                tenth, static_cast<unsigned long long>(actions.early),
                tenth, static_cast<unsigned long long>(actions.late));
  };
  spec.checks = {
      {"replication happened at startup",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const auto& series = ctx.sim.metrics().series();
         return {series.back().total_vnodes >
                     series.front().total_vnodes * 2,
                 "vnodes " + std::to_string(series.front().total_vnodes) +
                     " -> " + std::to_string(series.back().total_vnodes)};
       }},
      {"equilibrium reached (action volume collapses)",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const ActionWindows actions =
             EarlyLateActions(ctx.sim.metrics().series());
         return {actions.late * 10 < actions.early + 10,
                 std::to_string(actions.early) + " early vs " +
                     std::to_string(actions.late) + " late"};
       }},
      // The paper's claim is qualitative ("fewer virtual nodes reside at
      // expensive servers"); with alpha=4 congestion pricing the split
      // equalizes once cheap servers' storage pressure offsets their
      // price advantage, so we require a clear but not extreme
      // separation.
      {"fewer vnodes on expensive servers",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot& last = ctx.sim.metrics().last();
         return {last.vnodes_mean_cheap >
                     1.15 * last.vnodes_mean_expensive,
                 "cheap " + Fmt(last.vnodes_mean_cheap) +
                     " vs expensive " + Fmt(last.vnodes_mean_expensive)};
       }},
      {"every partition meets its SLA at equilibrium",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const size_t below = BelowTotal(ctx.sim.metrics().last());
         return {below == 0, std::to_string(below) + " below threshold"};
       }},
      {"no data lost during convergence",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         auto& store = ctx.sim.store();
         return {store.lost_partitions() == 0 &&
                     store.insert_failures() == 0,
                 "lost=" + std::to_string(store.lost_partitions()) +
                     " insert_failures=" +
                     std::to_string(store.insert_failures())};
       }},
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Fig. 3 — elasticity under arrivals and failures.

namespace {

constexpr Epoch kFig3ArrivalEpoch = 100;
constexpr Epoch kFig3FailureEpoch = 200;

struct Fig3Stats {
  int recovery_epochs = -1;
  size_t lost_total = 0;
};

/// Recovery time: epochs after the failure until every *repairable*
/// partition is back at its SLA. Partitions whose every replica sat on
/// the failed servers are gone for good (no surviving copy to replicate
/// from) — with 2-replica SLAs and 10% of the cloud failing at once, a
/// small number of such losses is information-theoretically unavoidable;
/// they are reported separately.
Fig3Stats ComputeFig3Stats(const std::vector<EpochSnapshot>& series) {
  Fig3Stats stats;
  for (size_t i = static_cast<size_t>(kFig3FailureEpoch);
       i < series.size(); ++i) {
    size_t below = 0;
    size_t lost = 0;
    for (size_t r = 0; r < series[i].ring_below_threshold.size(); ++r) {
      below += series[i].ring_below_threshold[r];
      lost += series[i].ring_lost[r];
    }
    if (below <= lost) {
      stats.recovery_epochs =
          static_cast<int>(i) - static_cast<int>(kFig3FailureEpoch);
      break;
    }
  }
  for (size_t r = 0; r < series.back().ring_lost.size(); ++r) {
    stats.lost_total += series.back().ring_lost[r];
  }
  return stats;
}

}  // namespace

ScenarioSpec Fig3ElasticitySpec() {
  ScenarioSpec spec;
  spec.name = "fig3_elasticity";
  spec.title =
      "Fig. 3 — Per-ring virtual node totals under arrivals and failures";
  spec.claim =
      "totals remain constant after adding 20 servers (epoch 100) and "
      "increase upon removing 20 servers (epoch 200) to maintain "
      "availability";
  spec.description =
      "paper Section III-C: 20 servers join at epoch 100, 20 fail at "
      "epoch 200; re-replication restores every repairable SLA";
  spec.default_epochs = 300;
  spec.timeline = {SimEvent::AddServers(kFig3ArrivalEpoch, 20),
                   SimEvent::FailRandom(kFig3FailureEpoch, 20)};
  // The summary reads fixed epochs around the arrival/failure events; a
  // shortened run doesn't contain them.
  spec.checks_require_epochs = kFig3FailureEpoch;
  spec.summarize = [](const ScenarioContext& ctx) {
    const auto& series = ctx.sim.metrics().series();
    auto vnodes_at = [&](Epoch e) {
      return series[static_cast<size_t>(e)].total_vnodes;
    };
    auto ring_vnodes_at = [&](Epoch e, size_t r) {
      return series[static_cast<size_t>(e)].ring_vnodes[r];
    };
    const Fig3Stats stats = ComputeFig3Stats(series);
    PrintSection("summary");
    std::printf("total vnodes: before arrival=%zu, after arrival=%zu, "
                "before failure=%zu, at failure=%zu, end=%zu\n",
                vnodes_at(kFig3ArrivalEpoch - 1),
                vnodes_at(kFig3ArrivalEpoch + 20),
                vnodes_at(kFig3FailureEpoch - 1),
                vnodes_at(kFig3FailureEpoch), series.back().total_vnodes);
    for (size_t r = 0; r < 3; ++r) {
      std::printf("ring %zu vnodes: pre-arrival=%zu post-arrival=%zu "
                  "pre-failure=%zu end=%zu\n",
                  r, ring_vnodes_at(kFig3ArrivalEpoch - 1, r),
                  ring_vnodes_at(kFig3ArrivalEpoch + 20, r),
                  ring_vnodes_at(kFig3FailureEpoch - 1, r),
                  series.back().ring_vnodes[r]);
    }
    std::printf("SLA recovery after failure: %d epochs\n",
                stats.recovery_epochs);
    std::printf("unrecoverable (all replicas on failed servers): ring0=%zu "
                "ring1=%zu ring2=%zu\n",
                series.back().ring_lost[0], series.back().ring_lost[1],
                series.back().ring_lost[2]);
  };
  spec.checks = {
      // Fixed-epoch reads go through MetricsCollector::SeriesAt — the
      // shared bounds guard — even though checks_require_epochs already
      // keeps short runs out of here.
      {"totals constant through the arrival (epoch 100)",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot* before =
             ctx.sim.metrics().SeriesAt(kFig3ArrivalEpoch - 1);
         const EpochSnapshot* after =
             ctx.sim.metrics().SeriesAt(kFig3ArrivalEpoch + 20);
         if (before == nullptr || after == nullptr) {
           return {false, "series too short"};
         }
         const double drift =
             std::abs(static_cast<double>(after->total_vnodes) -
                      static_cast<double>(before->total_vnodes)) /
             static_cast<double>(before->total_vnodes);
         return {drift < 0.02, "drift " + Fmt(drift * 100) + "%"};
       }},
      {"failure knocks replicas out at epoch 200",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot* before =
             ctx.sim.metrics().SeriesAt(kFig3FailureEpoch - 1);
         const EpochSnapshot* at =
             ctx.sim.metrics().SeriesAt(kFig3FailureEpoch);
         if (before == nullptr || at == nullptr) {
           return {false, "series too short"};
         }
         return {at->total_vnodes < before->total_vnodes,
                 std::to_string(before->total_vnodes) + " -> " +
                     std::to_string(at->total_vnodes)};
       }},
      {"re-replication restores the population",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot* pre =
             ctx.sim.metrics().SeriesAt(kFig3FailureEpoch - 1);
         if (pre == nullptr) return {false, "series too short"};
         const size_t before = pre->total_vnodes;
         const auto& series = ctx.sim.metrics().series();
         const size_t end = series.back().total_vnodes;
         const Fig3Stats stats = ComputeFig3Stats(series);
         return {end + stats.lost_total * 4 >= before * 98 / 100,
                 "end " + std::to_string(end) + " vs pre-failure " +
                     std::to_string(before)};
       }},
      {"repairable partitions back at SLA within 40 epochs",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const Fig3Stats stats =
             ComputeFig3Stats(ctx.sim.metrics().series());
         return {stats.recovery_epochs >= 0 && stats.recovery_epochs <= 40,
                 stats.recovery_epochs < 0
                     ? "never recovered"
                     : std::to_string(stats.recovery_epochs) + " epochs"};
       }},
      {"ring ordering preserved (4-replica ring largest)",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot& last = ctx.sim.metrics().last();
         return {last.ring_vnodes[2] > last.ring_vnodes[1] &&
                     last.ring_vnodes[1] > last.ring_vnodes[0],
                 std::to_string(last.ring_vnodes[0]) + " < " +
                     std::to_string(last.ring_vnodes[1]) + " < " +
                     std::to_string(last.ring_vnodes[2])};
       }},
      {"unavoidable losses stay near the independent-placement floor",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot& last = ctx.sim.metrics().last();
         const Fig3Stats stats =
             ComputeFig3Stats(ctx.sim.metrics().series());
         return {stats.lost_total <= 24 && last.ring_lost[2] == 0,
                 "lost " + std::to_string(stats.lost_total) +
                     " of 2400 partitions (4-replica ring: " +
                     std::to_string(last.ring_lost[2]) + ")"};
       }},
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Fig. 4 — the Slashdot effect.

namespace {

struct Fig4Spike {
  uint64_t routed = 0;
  uint64_t dropped = 0;
  uint64_t ramp_replications = 0;
  uint64_t decay_suicides = 0;
};

Fig4Spike ComputeFig4Spike(const std::vector<EpochSnapshot>& series,
                           size_t peak) {
  Fig4Spike spike;
  for (size_t e = 100; e < std::min<size_t>(series.size(), 375); ++e) {
    spike.routed += series[e].queries_routed;
    spike.dropped += series[e].queries_dropped;
  }
  for (size_t e = 100; e <= peak && e < series.size(); ++e) {
    spike.ramp_replications += series[e].exec.replications;
  }
  for (size_t e = peak; e < series.size(); ++e) {
    spike.decay_suicides += series[e].exec.suicides;
  }
  return spike;
}

double Fig4RatioAt(const MetricsCollector& metrics, Epoch e, size_t num,
                   size_t den) {
  const EpochSnapshot* snap = metrics.SeriesAt(e);
  if (snap == nullptr) return 0.0;
  const double d = snap->ring_load_mean[den];
  return d > 0 ? snap->ring_load_mean[num] / d : 0.0;
}

}  // namespace

ScenarioSpec Fig4SlashdotSpec() {
  ScenarioSpec spec;
  spec.name = "fig4_slashdot";
  spec.title =
      "Fig. 4 — Average query load per ring per server (Slashdot spike)";
  spec.claim =
      "query load per server remains quite balanced despite the rate "
      "varying 3000 -> 183000 -> 3000";
  spec.description =
      "paper Section III-D: the query rate spikes 61x over 25 epochs and "
      "decays over 250; per-server load stays balanced";
  spec.default_epochs = 400;
  spec.rate = RateSpec::PaperSlashdot();
  const size_t peak =
      static_cast<size_t>(spec.rate.start + spec.rate.ramp);
  // The summary compares the base epoch (50) against the spike's peak; a
  // shortened run (--epochs below the peak) has neither.
  spec.checks_require_epochs = static_cast<Epoch>(peak);
  spec.summarize = [peak](const ScenarioContext& ctx) {
    const auto& series = ctx.sim.metrics().series();
    const Fig4Spike spike = ComputeFig4Spike(series, peak);
    PrintSection("summary");
    std::printf("base (epoch 50):  ring loads/server = %s / %s / %s\n",
                Fmt(series[50].ring_load_mean[0]).c_str(),
                Fmt(series[50].ring_load_mean[1]).c_str(),
                Fmt(series[50].ring_load_mean[2]).c_str());
    std::printf("peak (epoch %zu): ring loads/server = %s / %s / %s\n",
                peak, Fmt(series[peak].ring_load_mean[0]).c_str(),
                Fmt(series[peak].ring_load_mean[1]).c_str(),
                Fmt(series[peak].ring_load_mean[2]).c_str());
    std::printf("per-server load CV at peak: ring0=%s ring1=%s ring2=%s\n",
                Fmt(series[peak].ring_load_cv[0]).c_str(),
                Fmt(series[peak].ring_load_cv[1]).c_str(),
                Fmt(series[peak].ring_load_cv[2]).c_str());
    std::printf(
        "spike window: routed=%llu dropped=%llu (%.3f%%), "
        "replications during ramp=%llu, suicides during decay=%llu\n",
        static_cast<unsigned long long>(spike.routed),
        static_cast<unsigned long long>(spike.dropped),
        spike.routed > 0 ? 100.0 * spike.dropped / spike.routed : 0.0,
        static_cast<unsigned long long>(spike.ramp_replications),
        static_cast<unsigned long long>(spike.decay_suicides));
  };
  spec.checks = {
      {"load scales ~61x between base and peak",
       [peak](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot* base = ctx.sim.metrics().SeriesAt(50);
         const EpochSnapshot* at_peak =
             ctx.sim.metrics().SeriesAt(static_cast<Epoch>(peak));
         if (base == nullptr || at_peak == nullptr) {
           return {false, "series too short"};
         }
         return {at_peak->ring_load_mean[0] >
                     30.0 * base->ring_load_mean[0],
                 Fmt(base->ring_load_mean[0]) + " -> " +
                     Fmt(at_peak->ring_load_mean[0])};
       }},
      {"app fractions hold at base (~2x and ~4x)",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const double r01 = Fig4RatioAt(ctx.sim.metrics(), 50, 0, 1);
         const double r02 = Fig4RatioAt(ctx.sim.metrics(), 50, 0, 2);
         return {r01 > 1.5 && r01 < 2.5 && r02 > 3.0 && r02 < 5.0,
                 "r0/r1=" + Fmt(r01) + " r0/r2=" + Fmt(r02)};
       }},
      {"app fractions hold at peak",
       [peak](const ScenarioContext& ctx) -> ShapeCheckResult {
         const double r01 = Fig4RatioAt(ctx.sim.metrics(),
                                        static_cast<Epoch>(peak), 0, 1);
         const double r02 = Fig4RatioAt(ctx.sim.metrics(),
                                        static_cast<Epoch>(peak), 0, 2);
         return {r01 > 1.5 && r01 < 2.5 && r02 > 3.0 && r02 < 5.0,
                 "r0/r1=" + Fmt(r01) + " r0/r2=" + Fmt(r02)};
       }},
      {"dropped queries stay marginal through the spike",
       [peak](const ScenarioContext& ctx) -> ShapeCheckResult {
         const Fig4Spike spike =
             ComputeFig4Spike(ctx.sim.metrics().series(), peak);
         const double rate =
             spike.routed > 0
                 ? static_cast<double>(spike.dropped) / spike.routed
                 : 0.0;
         return {spike.routed > 0 && rate < 0.02,
                 Fmt(rate * 100.0, 3) + "% dropped"};
       }},
      {"hot partitions replicate during the ramp",
       [peak](const ScenarioContext& ctx) -> ShapeCheckResult {
         const Fig4Spike spike =
             ComputeFig4Spike(ctx.sim.metrics().series(), peak);
         return {spike.ramp_replications > 0,
                 std::to_string(spike.ramp_replications) +
                     " replications"};
       }},
      {"over-provisioned replicas retire during the decay",
       [peak](const ScenarioContext& ctx) -> ShapeCheckResult {
         const Fig4Spike spike =
             ComputeFig4Spike(ctx.sim.metrics().series(), peak);
         return {spike.decay_suicides > 0,
                 std::to_string(spike.decay_suicides) + " suicides"};
       }},
      {"load returns to base after the spike",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const auto& series = ctx.sim.metrics().series();
         return {series.back().ring_load_mean[0] <
                     3.0 * series[50].ring_load_mean[0],
                 Fmt(series.back().ring_load_mean[0]) + " vs base " +
                     Fmt(series[50].ring_load_mean[0])};
       }},
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Fig. 5 — storage saturation.

ScenarioSpec Fig5SaturationSpec() {
  ScenarioSpec spec;
  spec.name = "fig5_saturation";
  spec.title = "Fig. 5 — Storage saturation: insert failures";
  spec.claim =
      "no data losses for used capacity up to 96% of the total storage";
  spec.description =
      "paper Section III-E: 2000 Pareto-skewed 500 KB inserts/epoch fill "
      "the cloud; inserts must not fail until ~96% utilization";
  spec.default_epochs = 900;
  spec.default_sample = 10;
  // Saturation takes a full cloud: from the 0.437 start, the fill gains
  // ~0.00087 per epoch and reaches 90%, the earliest failure point the
  // checks accept, after ~530 epochs (the default run stops at 576,
  // seeds 1-3 at 564-572). A run planned shorter cannot saturate, so its
  // checks are skipped; a longer one is judged however early stop_when
  // ends it.
  spec.checks_require_epochs = 530;
  InsertWorkloadOptions inserts;
  inserts.inserts_per_epoch = 2000;
  inserts.object_bytes = 500 * kKB;
  spec.inserts = inserts;
  spec.before_run = [inserts](const ScenarioContext& ctx) {
    std::printf(
        "capacity=%s, start utilization=%.3f, insert rate=%s/epoch\n",
        FormatBytes(ctx.sim.cluster().TotalStorageCapacity()).c_str(),
        ctx.sim.cluster().StorageUtilization(),
        FormatBytes(inserts.inserts_per_epoch * inserts.object_bytes)
            .c_str());
  };
  // Run until inserts have been failing persistently (25 consecutive
  // epochs: fully saturated) or the epoch budget runs out.
  spec.stop_when = [](const Simulation& sim) {
    const auto& series = sim.metrics().series();
    if (series.size() < 25) return false;
    for (size_t i = series.size() - 25; i < series.size(); ++i) {
      if (series[i].insert_failed == 0) return false;
    }
    return true;
  };
  spec.summarize = [](const ScenarioContext& ctx) {
    const auto& series = ctx.sim.metrics().series();
    const EpochSnapshot& last = series.back();
    double util_at_first_failure = -1.0;
    for (const EpochSnapshot& s : series) {
      if (s.insert_failed > 0) {
        util_at_first_failure = s.storage_utilization;
        break;
      }
    }
    double clean_util = 0.0;
    for (const EpochSnapshot& s : series) {
      if (s.insert_failures_total > 0) break;
      clean_util = s.storage_utilization;
    }
    PrintSection("summary");
    std::printf("epochs run: %zu, final utilization=%.3f\n", series.size(),
                last.storage_utilization);
    std::printf("highest failure-free utilization: %.3f\n", clean_util);
    std::printf("utilization at first insert failure: %s\n",
                util_at_first_failure < 0
                    ? "never failed"
                    : Fmt(util_at_first_failure, 3).c_str());
    std::printf("total insert failures: %llu\n",
                static_cast<unsigned long long>(
                    last.insert_failures_total));
  };
  spec.checks = {
      {"saturation was reached (failures eventually appear)",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot& last = ctx.sim.metrics().last();
         return {last.insert_failures_total > 0,
                 "final utilization " + Fmt(last.storage_utilization, 3)};
       }},
      {"no insert failures below 90% utilization",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         double util_at_first_failure = -1.0;
         for (const EpochSnapshot& s : ctx.sim.metrics().series()) {
           if (s.insert_failed > 0) {
             util_at_first_failure = s.storage_utilization;
             break;
           }
         }
         return {util_at_first_failure < 0 ||
                     util_at_first_failure >= 0.90,
                 "first failure at " +
                     (util_at_first_failure < 0
                          ? std::string("never")
                          : Fmt(util_at_first_failure, 3))};
       }},
      {"storage kept balanced while filling (CV of vnode placement "
       "stays moderate)",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const EpochSnapshot& last = ctx.sim.metrics().last();
         return {last.vnodes_cv < 1.0,
                 "vnodes/server CV " + Fmt(last.vnodes_cv)};
       }},
      {"partitions kept splitting under the insert stream",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         const size_t partitions =
             ctx.sim.store().catalog().total_partitions();
         return {partitions > 2400,
                 std::to_string(partitions) + " partitions"};
       }},
      {"no partitions lost",
       [](const ScenarioContext& ctx) -> ShapeCheckResult {
         return {ctx.sim.store().lost_partitions() == 0,
                 std::to_string(ctx.sim.store().lost_partitions()) +
                     " lost"};
       }},
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Future-work overhead analysis (communication + latency): a multi-phase
// experiment that re-schedules mid-run, so it keeps a custom main.

namespace {

struct CommWindow {
  CommStats comm;
  double epochs = 0;
  double mean_latency_ms = 0.0;

  void Add(const EpochSnapshot& snap) {
    comm.Accumulate(snap.comm);
    epochs += 1.0;
    double weighted = 0.0, weight = 0.0;
    for (size_t r = 0; r < snap.ring_latency_ms.size(); ++r) {
      weighted += snap.ring_latency_ms[r] * snap.ring_load_mean[r];
      weight += snap.ring_load_mean[r];
    }
    mean_latency_ms += weight > 0 ? weighted / weight : 0.0;
  }

  std::vector<std::string> Row(const char* name) const {
    auto per_epoch = [&](uint64_t v) {
      return AsciiTable::Num(static_cast<double>(v) / epochs, 1);
    };
    return {name,
            per_epoch(comm.board_msgs),
            per_epoch(comm.query_msgs),
            per_epoch(comm.consistency_msgs),
            per_epoch(comm.transfer_msgs),
            per_epoch(comm.control_msgs),
            FormatBytes(static_cast<uint64_t>(
                static_cast<double>(comm.transfer_bytes) / epochs)),
            AsciiTable::Num(mean_latency_ms / epochs, 1)};
  }
};

int OverheadAnalysisMain(const RunOverrides& overrides) {
  const int phase = overrides.epochs > 0 ? overrides.epochs : 60;

  if (overrides.sample_every > 0 || overrides.full_csv) {
    WarnIgnoredFlag("--sample/--csv",
                    "this experiment prints regime tables; use --out for "
                    "the raw series");
  }

  SimConfig config = SimConfig::Paper();
  ApplyOverrides(&config, overrides, "overhead_analysis");
  Simulation sim(std::move(config));
  const Status init = sim.Initialize();
  if (!init.ok()) {
    std::printf("init failed: %s\n", init.ToString().c_str());
    return 1;
  }
  // A light write stream so the consistency fan-out class is exercised.
  InsertWorkloadOptions writes;
  writes.inserts_per_epoch = 200;
  writes.object_bytes = 500 * kKB;
  sim.EnableInserts(writes);
  // Settle the residual post-startup churn before measuring.
  sim.Run(2 * phase);

  // Regime 1: steady state.
  CommWindow steady;
  sim.Run(phase);
  for (size_t i = sim.metrics().series().size() - phase;
       i < sim.metrics().series().size(); ++i) {
    steady.Add(sim.metrics().series()[i]);
  }

  // Regime 2: failure recovery (20 servers die).
  CommWindow recovery;
  sim.ScheduleEvent(SimEvent::FailRandom(sim.run_epoch(), 20));
  sim.Run(phase);
  for (size_t i = sim.metrics().series().size() - phase;
       i < sim.metrics().series().size(); ++i) {
    recovery.Add(sim.metrics().series()[i]);
  }

  // Regime 3: a 10x load spike.
  CommWindow spike;
  sim.SetRateSchedule(std::make_unique<SlashdotSchedule>(
      3000.0, 30000.0, sim.run_epoch() + 5, 10, 30));
  sim.Run(phase);
  for (size_t i = sim.metrics().series().size() - phase;
       i < sim.metrics().series().size(); ++i) {
    spike.Add(sim.metrics().series()[i]);
  }

  PrintSection("messages per epoch by class and regime");
  AsciiTable table({"regime", "board", "queries", "consistency",
                    "transfers", "control", "transfer bytes",
                    "mean RTT (ms)"});
  table.AddRow(steady.Row("steady state"));
  table.AddRow(recovery.Row("failure recovery"));
  table.AddRow(spike.Row("10x load spike"));
  std::printf("%s", table.ToString().c_str());

  // Latency with geographic skew: hotspot clients on ring 0, watch the
  // expected RTT fall as replicas chase the clients.
  PrintSection("query latency under a 90% single-country hotspot");
  const ClientMix mix =
      HotspotMix(sim.config().grid, Location::Of(0, 0, 0, 0, 0, 0), 0.9);
  (void)sim.store().SetClientMix(sim.rings()[0], mix);
  const double rtt_before = sim.metrics().last().ring_latency_ms[0];
  sim.Run(120);
  const double rtt_after = sim.metrics().last().ring_latency_ms[0];
  std::printf("ring0 expected query RTT: %.1f ms (uniform placement) -> "
              "%.1f ms (after 120 hotspot epochs)\n",
              rtt_before, rtt_after);

  if (!overrides.out.empty()) {
    const Status written = sim.metrics().WriteCsv(overrides.out);
    if (!written.ok()) {
      std::fprintf(stderr, "writing --out=%s failed: %s\n",
                   overrides.out.c_str(), written.ToString().c_str());
      return 1;
    }
    std::printf("full CSV written to %s\n", overrides.out.c_str());
  }
  if (!overrides.metrics_json.empty()) {
    obs::MetricsRegistry registry;
    registry.SetInfo("scenario", "overhead_analysis");
    registry.SetCounter(
        "epochs_run", static_cast<uint64_t>(sim.metrics().series().size()));
    obs::RegisterStoreSnapshot(&registry, "store", sim.store());
    const Status written = registry.WriteJson(overrides.metrics_json);
    if (!written.ok()) {
      std::fprintf(stderr, "writing --metrics-json=%s failed: %s\n",
                   overrides.metrics_json.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n",
                overrides.metrics_json.c_str());
  }

  ShapeChecks checks;
  checks.Check(
      "steady-state overhead is dominated by queries, not control",
      steady.comm.query_msgs >
          10 * (steady.comm.control_msgs + steady.comm.transfer_msgs),
      std::to_string(steady.comm.query_msgs) + " query vs " +
          std::to_string(steady.comm.control_msgs +
                         steady.comm.transfer_msgs) +
          " control+transfer msgs");
  checks.Check("failure recovery adds transfer traffic over steady state",
               recovery.comm.transfer_bytes >
                   steady.comm.transfer_bytes * 3 / 2,
               FormatBytes(recovery.comm.transfer_bytes) + " vs " +
                   FormatBytes(steady.comm.transfer_bytes));
  checks.Check("write stream produces consistency fan-out",
               steady.comm.consistency_msgs >
                   static_cast<uint64_t>(steady.epochs) * 200,
               std::to_string(steady.comm.consistency_msgs) + " msgs");
  checks.Check("board overhead is one message per server per epoch",
               steady.comm.board_msgs ==
                   static_cast<uint64_t>(steady.epochs) * 200,
               std::to_string(steady.comm.board_msgs) + " msgs over " +
                   std::to_string(static_cast<int>(steady.epochs)) +
                   " epochs");
  // At the paper's lambda=3000 a vnode sees ~1 query/epoch, so the
  // proximity term moves placement slowly — the effect is measurable but
  // modest here; the geo_placement example shows the strong version at
  // higher per-vnode query value.
  checks.Check("geographic placement measurably cuts the hotspot's RTT",
               rtt_after < rtt_before * 0.95,
               Fmt(rtt_before, 1) + " ms -> " + Fmt(rtt_after, 1) +
                   " ms");
  return checks.Summarize();
}

}  // namespace

ScenarioSpec OverheadAnalysisSpec() {
  ScenarioSpec spec;
  spec.name = "overhead_analysis";
  spec.title = "Future work — communication overhead and query latency";
  spec.claim =
      "quantify the message/byte cost of the economy per regime and the "
      "RTT effect of geographic placement (paper Section IV)";
  spec.description =
      "paper Section IV future work: message classes per regime (steady / "
      "recovery / spike) and hotspot RTT; --epochs sets the phase length";
  spec.custom_main = OverheadAnalysisMain;
  return spec;
}

}  // namespace skute::scenario
