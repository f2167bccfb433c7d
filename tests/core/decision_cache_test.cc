// Equivalence gate of the decision-plane acceleration: the per-epoch
// CandidateContext and the cross-epoch ProposalCache must be *exact* —
// every proposal, in order, with the same score, bit for bit — and their
// invalidation must track every input that can move (prices, membership,
// balance streaks, replica sets). The scenario-level A/B at the bottom
// runs a whole simulation with the caches on and off, at 1 and 4
// threads, and diffs the metrics CSVs.

#include "skute/core/decision_cache.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "skute/core/decision.h"
#include "skute/economy/availability.h"
#include "skute/economy/candidate_context.h"
#include "skute/scenario/runner.h"
#include "skute/topology/topology.h"

namespace skute {
namespace {

// Same 16-server cloud as decision_test.cc: 2 continents x 2 countries x
// 2 racks x 2 servers, one 4-partition ring at the 2-replica SLA.
class DecisionCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridSpec spec;
    spec.continents = 2;
    spec.countries_per_continent = 2;
    spec.datacenters_per_country = 1;
    spec.rooms_per_datacenter = 1;
    spec.racks_per_room = 2;
    spec.servers_per_rack = 2;
    auto grid = BuildGrid(spec);
    ASSERT_TRUE(grid.ok());
    for (const Location& loc : *grid) {
      cluster_.AddServer(loc, ServerResources{}, ServerEconomics{});
    }
    ring_ = catalog_.CreateRing(0, 4).value();
    cluster_.BeginEpoch();
    policies_.resize(1);
    policies_[0].min_availability =
        AvailabilityModel::ThresholdForReplicas(2, 1.0);
  }

  ServerId At(uint32_t c, uint32_t n, uint32_t k, uint32_t s) {
    const Location want = Location::Of(c, n, 0, 0, k, s);
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      if (cluster_.server(id)->location() == want) return id;
    }
    return kInvalidServer;
  }

  VirtualNode* AddReplica(Partition* p, ServerId server) {
    const VNodeId vid = catalog_.AllocateVNodeId();
    (void)p->AddReplica(server, vid, 0);
    return vnodes_.Create(vid, p->id(), p->ring(), server, 0);
  }

  // What RecordBalancesStage computes: post-record streak bits per
  // partition, offline servers' vnodes included.
  std::vector<uint8_t> ComputeStreakFlags() const {
    std::vector<uint8_t> flags(catalog_.partition_id_bound(), 0);
    catalog_.ForEachPartition([&](const Partition* p) {
      uint8_t f = kStreakFlagsValid;
      for (const ReplicaInfo& r : p->replicas()) {
        const VirtualNode* v = vnodes_.Find(r.vnode);
        if (v == nullptr) continue;
        if (v->balance.NegativeStreak()) f |= kStreakNegative;
        if (v->balance.PositiveStreak()) f |= kStreakPositive;
      }
      flags[p->id()] = f;
    });
    return flags;
  }

  void ExpectSameActions(const std::vector<Action>& a,
                         const std::vector<Action>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].type, b[i].type) << "action " << i;
      EXPECT_EQ(a[i].partition, b[i].partition) << "action " << i;
      EXPECT_EQ(a[i].ring, b[i].ring) << "action " << i;
      EXPECT_EQ(a[i].vnode, b[i].vnode) << "action " << i;
      EXPECT_EQ(a[i].source, b[i].source) << "action " << i;
      EXPECT_EQ(a[i].target, b[i].target) << "action " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "action " << i;  // bit exact
      EXPECT_STREQ(a[i].reason, b[i].reason) << "action " << i;
    }
  }

  Cluster cluster_{PricingParams{}};
  RingCatalog catalog_;
  VNodeRegistry vnodes_{4};
  RingId ring_ = 0;
  std::vector<RingPolicy> policies_;
  DecisionParams params_;
};

// A non-trivial mix so the proximity factor g actually varies by server.
ClientMix EuropeHeavyMix() {
  ClientMix mix;
  mix.loads.push_back({Location::Of(0, 0, 0, 0, 0, 0), 900.0});
  mix.loads.push_back({Location::Of(1, 1, 0, 0, 1, 1), 100.0});
  return mix;
}

// --- CandidateContext: pruned Select == full SelectTargetForSet ----------

TEST_F(DecisionCacheTest, SelectMatchesFullScanAcrossCases) {
  const ClientMix mix = EuropeHeavyMix();
  // Spread some storage so admissibility varies too (default capacity is
  // 16 GiB per server; one moderately and one nearly full).
  ASSERT_TRUE(
      cluster_.server(At(0, 0, 0, 0))->ReserveStorage(8 * kGiB).ok());
  ASSERT_TRUE(
      cluster_.server(At(1, 0, 1, 1))->ReserveStorage(15 * kGiB).ok());
  cluster_.BeginEpoch();

  CandidateContext ctx;
  ctx.Build(cluster_, params_.candidate, {nullptr, &mix});

  const std::vector<std::vector<ServerId>> replica_sets = {
      {},
      {At(0, 0, 0, 0)},
      {At(0, 0, 0, 0), At(1, 0, 0, 0)},
      {At(0, 0, 0, 0), At(0, 0, 0, 1), At(0, 0, 1, 0)},
      {At(0, 0, 0, 0), At(1, 0, 0, 0), At(0, 1, 0, 0), At(1, 1, 0, 0)},
  };
  const std::vector<std::vector<ServerId>> excludes = {
      {}, {At(1, 1, 1, 1)}, {At(0, 1, 0, 0), At(1, 0, 1, 0)}};
  RentSurcharge crowded;
  crowded.Add(At(1, 0, 0, 0), 0.5);
  crowded.Add(At(0, 1, 1, 1), 0.25);
  // The nearly full server's high rent puts it past where the scan stops;
  // a negative entry lifts its score above that rent-only bound, so the
  // scan must fold the ledger's floor into its stopping rule. The zero
  // entry must leave the floor where the negative one put it.
  RentSurcharge discounted;
  discounted.Add(At(1, 0, 1, 1), -40.0);
  discounted.Add(At(1, 1, 0, 1), 0.0);
  const std::vector<const RentSurcharge*> surcharges = {nullptr, &crowded,
                                                        &discounted};
  // The last size is admissible nowhere: both paths must return NotFound.
  const std::vector<uint64_t> sizes = {0, 64 * kMB, 4 * kGiB, 64 * kGiB};
  const std::vector<const ClientMix*> mixes = {nullptr, &mix};

  SelectTally tally;
  size_t cases = 0;
  for (const auto& replicas : replica_sets) {
    for (const auto& exclude : excludes) {
      for (const RentSurcharge* surcharge : surcharges) {
        for (uint64_t bytes : sizes) {
          for (const ClientMix* m : mixes) {
            for (uint64_t salt : {0ull, 1ull, 7ull, 12345ull}) {
              const auto full = SelectTargetForSet(
                  cluster_, replicas, bytes, m, params_.candidate, exclude,
                  surcharge, salt);
              const auto fast = ctx.Select(replicas, bytes, m, exclude,
                                           surcharge, salt, &tally);
              ASSERT_EQ(full.ok(), fast.ok())
                  << "case " << cases << " status diverged";
              if (full.ok()) {
                EXPECT_EQ(full->server, fast->server) << "case " << cases;
                EXPECT_EQ(full->score, fast->score) << "case " << cases;
              }
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 900u);
  ctx.AddTally(tally);
  // The pruned path really pruned: far fewer candidates than a full scan
  // per call would touch — and no silent fallback to full scans.
  const auto& c = ctx.counters();
  EXPECT_EQ(c.full_scans.load(), 0u);
  EXPECT_LT(c.candidates_scored.load(), c.select_calls.load() * 16);
}

TEST_F(DecisionCacheTest, SelectUnknownMixFallsBackAndStaysExact) {
  CandidateContext ctx;
  ctx.Build(cluster_, params_.candidate, {nullptr});
  const ClientMix stranger = EuropeHeavyMix();  // not in Build()
  const auto full = SelectTargetForSet(cluster_, {At(0, 0, 0, 0)}, 0,
                                       &stranger, params_.candidate, {},
                                       nullptr, 3);
  SelectTally tally;
  const auto fast =
      ctx.Select({At(0, 0, 0, 0)}, 0, &stranger, {}, nullptr, 3, &tally);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(full->server, fast->server);
  EXPECT_EQ(full->score, fast->score);
  ctx.AddTally(tally);
  EXPECT_EQ(ctx.counters().full_scans.load(), 1u);
}

TEST_F(DecisionCacheTest, SelectNotBuiltIsFailedPrecondition) {
  CandidateContext ctx;
  EXPECT_FALSE(ctx.ready());
  SelectTally tally;
  const auto r = ctx.Select({}, 0, nullptr, {}, nullptr, 0, &tally);
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

// Staleness: a price change is only picked up by rebuilding — and after
// the rebuild the pruned scan must again match a fresh full scan.
TEST_F(DecisionCacheTest, RebuildAfterPriceChangeStaysExact) {
  CandidateContext ctx;
  ctx.Build(cluster_, params_.candidate, {nullptr});
  SelectTally tally;
  const auto before = ctx.Select({At(0, 0, 0, 0)}, 0, nullptr, {}, nullptr,
                                 /*salt=*/1, &tally);
  ASSERT_TRUE(before.ok());

  // Load up the previous winner so its Eq. 1 rent jumps next epoch.
  Server* winner = cluster_.server(before->server);
  winner->ServeQueries(winner->resources().query_capacity_per_epoch);
  ASSERT_TRUE(
      winner->ReserveStorage(winner->resources().storage_capacity / 2)
          .ok());
  cluster_.BeginEpoch();

  ctx.Build(cluster_, params_.candidate, {nullptr});
  const auto full = SelectTargetForSet(cluster_, {At(0, 0, 0, 0)}, 0,
                                       nullptr, params_.candidate, {},
                                       nullptr, 1);
  const auto fast =
      ctx.Select({At(0, 0, 0, 0)}, 0, nullptr, {}, nullptr, 1, &tally);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(full->server, fast->server);
  EXPECT_EQ(full->score, fast->score);
}

// --- ProposalCache: cross-epoch availability reuse -----------------------

TEST_F(DecisionCacheTest, AvailabilityCacheHitsOnQuietEpochsOnly) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));

  ProposalCache cache;
  const auto availability_of = [&](const Partition& partition) {
    ProposalCache::Tally tally;
    const double avail = cache.AvailabilityOf(partition, cluster_, &tally);
    cache.AddTally(tally);
    return avail;
  };
  cache.PrepareEpoch(catalog_.partition_id_bound(),
                     cluster_.topology_version());
  const double a1 = availability_of(*p);
  EXPECT_EQ(a1, AvailabilityModel::OfPartition(*p, cluster_));
  EXPECT_EQ(cache.misses(), 1u);

  // Second lookup in the same epoch (repair + economic share it): hit.
  EXPECT_EQ(availability_of(*p), a1);
  EXPECT_EQ(cache.hits(), 1u);

  // Quiet next epoch: still a hit.
  cluster_.BeginEpoch();
  cache.PrepareEpoch(catalog_.partition_id_bound(),
                     cluster_.topology_version());
  EXPECT_EQ(availability_of(*p), a1);
  EXPECT_EQ(cache.hits(), 2u);

  // A failure bumps the topology version: recompute, and the value must
  // track the (now lower) live-set availability.
  ASSERT_TRUE(cluster_.FailServer(At(1, 0, 0, 0)).ok());
  cache.PrepareEpoch(catalog_.partition_id_bound(),
                     cluster_.topology_version());
  const double a2 = availability_of(*p);
  EXPECT_EQ(a2, AvailabilityModel::OfPartition(*p, cluster_));
  EXPECT_LT(a2, a1);
  EXPECT_EQ(cache.misses(), 2u);

  // A replica-set change alone (same topology) also invalidates.
  ASSERT_TRUE(cluster_.RecoverServer(At(1, 0, 0, 0)).ok());
  cache.PrepareEpoch(catalog_.partition_id_bound(),
                     cluster_.topology_version());
  (void)availability_of(*p);
  const uint64_t misses_before = cache.misses();
  AddReplica(p, At(0, 1, 0, 0));
  cache.PrepareEpoch(catalog_.partition_id_bound(),
                     cluster_.topology_version());
  EXPECT_EQ(availability_of(*p),
            AvailabilityModel::OfPartition(*p, cluster_));
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

// --- Whole-engine equivalence: ProposeAll cached vs uncached -------------

TEST_F(DecisionCacheTest, ProposeAllCachedMatchesUncachedEpochByEpoch) {
  // A little of everything: an under-replicated partition (repair), a
  // redundant negative-streak vnode (suicide), a positive-streak vnode
  // with demand (replicate), and a quiescent partition (clean skip).
  Partition* repairme = catalog_.partition(0);
  AddReplica(repairme, At(0, 0, 0, 0));

  Partition* shrinking = catalog_.partition(1);
  AddReplica(shrinking, At(0, 0, 0, 1));
  AddReplica(shrinking, At(1, 0, 0, 0));
  VirtualNode* extra = AddReplica(shrinking, At(0, 1, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    extra->balance.Record(-0.5);
  }

  Partition* growing = catalog_.partition(2);
  AddReplica(growing, At(1, 0, 0, 1));
  VirtualNode* hot = AddReplica(growing, At(0, 0, 1, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    hot->balance.Record(5.0);
  }
  PartitionStatsTable stats;
  stats[growing->id()].queries = 10000;

  Partition* quiet = catalog_.partition(3);
  AddReplica(quiet, At(0, 1, 1, 0));
  AddReplica(quiet, At(1, 1, 1, 0));

  DecisionEngine engine(params_);
  CandidateContext candidates;
  ProposalCache avail_cache;

  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto uncached = engine.ProposeAll(cluster_, catalog_, vnodes_,
                                            policies_, stats, nullptr);

    candidates.Build(cluster_, params_.candidate, {nullptr});
    avail_cache.PrepareEpoch(catalog_.partition_id_bound(),
                             cluster_.topology_version());
    const std::vector<uint8_t> flags = ComputeStreakFlags();
    DecisionTally tally;
    ProposeContext pctx;
    pctx.candidates = &candidates;
    pctx.avail_cache = &avail_cache;
    pctx.streak_flags = &flags;
    pctx.tally = &tally;
    const auto cached = engine.ProposeAll(cluster_, catalog_, vnodes_,
                                          policies_, stats, &pctx);
    pctx.FlushTally();

    ExpectSameActions(uncached, cached);
    ASSERT_FALSE(cached.empty()) << "epoch " << epoch;
    cluster_.BeginEpoch();  // reprice between epochs
  }
  // The quiet partition was skipped every epoch; the streaked ones ran.
  EXPECT_GE(avail_cache.clean_skips(), 3u);
  EXPECT_GE(avail_cache.dirty_runs(), 6u);
  // Epochs 2 and 3 reused epoch 1's availability values.
  EXPECT_GT(avail_cache.hits(), 0u);
}

TEST_F(DecisionCacheTest, CachedProposalsTrackAFailureEvent) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));

  DecisionEngine engine(params_);
  CandidateContext candidates;
  ProposalCache avail_cache;
  auto run_cached = [&]() {
    candidates.Build(cluster_, params_.candidate, {nullptr});
    avail_cache.PrepareEpoch(catalog_.partition_id_bound(),
                             cluster_.topology_version());
    const std::vector<uint8_t> flags = ComputeStreakFlags();
    DecisionTally tally;
    ProposeContext pctx;
    pctx.candidates = &candidates;
    pctx.avail_cache = &avail_cache;
    pctx.streak_flags = &flags;
    pctx.tally = &tally;
    auto actions = engine.ProposeAll(cluster_, catalog_, vnodes_, policies_,
                                     {}, &pctx);
    pctx.FlushTally();
    return actions;
  };

  // Healthy epoch: nothing to do, and the cache holds the healthy value.
  EXPECT_TRUE(run_cached().empty());

  // Fail one replica's server mid-run. The next cached epoch must see the
  // drop (stale cache would keep proposing nothing) and match uncached.
  ASSERT_TRUE(cluster_.FailServer(At(1, 0, 0, 0)).ok());
  const auto uncached = engine.ProposeAll(cluster_, catalog_, vnodes_,
                                          policies_, {}, nullptr);
  const auto cached = run_cached();
  ExpectSameActions(uncached, cached);
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0].type, ActionType::kReplicate);
}

TEST_F(DecisionCacheTest, BalanceFlipRedirtiesACleanPartition) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));
  VirtualNode* extra = AddReplica(p, At(0, 1, 0, 0));

  DecisionEngine engine(params_);
  ProposalCache avail_cache;
  auto run = [&](const std::vector<uint8_t>& flags) {
    avail_cache.PrepareEpoch(catalog_.partition_id_bound(),
                             cluster_.topology_version());
    DecisionTally tally;
    ProposeContext pctx;
    pctx.avail_cache = &avail_cache;
    pctx.streak_flags = &flags;
    pctx.tally = &tally;
    auto actions = engine.ProposeAll(cluster_, catalog_, vnodes_, policies_,
                                     {}, &pctx);
    pctx.FlushTally();
    return actions;
  };

  // No streak anywhere: partition 0 is clean and skipped.
  EXPECT_TRUE(run(ComputeStreakFlags()).empty());
  const uint64_t clean_before = avail_cache.clean_skips();
  EXPECT_GT(clean_before, 0u);

  // The balance flips to a full negative streak: the recomputed flags
  // must re-dirty the partition and produce the suicide, identical to
  // the uncached engine.
  for (int i = 0; i < params_.balance_window; ++i) {
    extra->balance.Record(-0.5);
  }
  const auto uncached = engine.ProposeAll(cluster_, catalog_, vnodes_,
                                          policies_, {}, nullptr);
  const auto cached = run(ComputeStreakFlags());
  ExpectSameActions(uncached, cached);
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0].type, ActionType::kSuicide);
  EXPECT_GT(avail_cache.dirty_runs(), 0u);
}

TEST_F(DecisionCacheTest, InvalidFlagsFallBackToTheInlineScan) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));
  VirtualNode* extra = AddReplica(p, At(0, 1, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    extra->balance.Record(-0.5);
  }

  DecisionEngine engine(params_);
  ProposalCache avail_cache;
  avail_cache.PrepareEpoch(catalog_.partition_id_bound(),
                           cluster_.topology_version());
  // All-zero flags (no kStreakFlagsValid): the engine must not trust
  // them — the inline vnode scan still finds the streak.
  const std::vector<uint8_t> flags(catalog_.partition_id_bound(), 0);
  DecisionTally tally;
  ProposeContext pctx;
  pctx.avail_cache = &avail_cache;
  pctx.streak_flags = &flags;
  pctx.tally = &tally;
  const auto cached = engine.ProposeAll(cluster_, catalog_, vnodes_,
                                        policies_, {}, &pctx);
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0].type, ActionType::kSuicide);
}

// --- Scenario-level A/B: caches on/off x threads 1/4 ---------------------

// Zeroes the wall-clock columns of a metrics CSV (same idiom as
// scenario_api_test.cc): timings differ run to run, everything else is
// simulation output and must match bit for bit.
std::string MaskTimingColumns(const std::string& csv) {
  std::istringstream lines(csv);
  std::string line;
  std::vector<size_t> timing_cols;
  std::string result;
  bool header = true;
  while (std::getline(lines, line)) {
    std::vector<std::string> fields;
    std::string field;
    std::istringstream split(line);
    while (std::getline(split, field, ',')) fields.push_back(field);
    if (header) {
      for (size_t i = 0; i < fields.size(); ++i) {
        if (fields[i] == "route_ms" || fields[i].rfind("stage_", 0) == 0) {
          timing_cols.push_back(i);
        }
      }
      header = false;
    } else {
      for (size_t col : timing_cols) {
        if (col < fields.size()) fields[col] = "0";
      }
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) result += ',';
      result += fields[i];
    }
    result += '\n';
  }
  return result;
}

std::string RunTinyScenario(bool caches, int threads) {
  scenario::ScenarioSpec spec;
  spec.name = "decision_cache_ab";
  spec.title = "decision-plane cache A/B";
  spec.claim = "none";
  spec.description = "equivalence harness";
  spec.config = [caches, threads] {
    SimConfig config = SimConfig::Tiny();
    config.store.decision.use_candidate_context = caches;
    config.store.decision.use_proposal_cache = caches;
    config.store.epoch.threads = threads;
    return config;
  };
  spec.default_epochs = 16;
  // Churn both ways so repair, growth and shrink all fire mid-run.
  spec.timeline = {SimEvent::AddServers(4, 2), SimEvent::FailRandom(8, 2)};

  std::ostringstream csv;
  scenario::ScenarioRunner::Options options;
  options.print = false;
  options.csv_capture = &csv;
  const auto outcome = scenario::ScenarioRunner::Execute(
      spec, scenario::RunOverrides{}, options);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.epochs_run, 16);
  return MaskTimingColumns(csv.str());
}

TEST(DecisionCacheScenarioTest, CachesAndThreadsNeverChangeTheRun) {
  const std::string baseline = RunTinyScenario(false, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(RunTinyScenario(true, 1), baseline) << "caches changed the run";
  EXPECT_EQ(RunTinyScenario(false, 4), baseline) << "threads changed the run";
  EXPECT_EQ(RunTinyScenario(true, 4), baseline)
      << "caches+threads changed the run";
}

}  // namespace
}  // namespace skute
