#include "skute/core/decision.h"

#include <gtest/gtest.h>

#include "skute/common/random.h"
#include "skute/core/store.h"
#include "skute/economy/availability.h"
#include "skute/economy/candidate_context.h"
#include "skute/topology/topology.h"

namespace skute {
namespace {

// Fixture: a 16-server cloud, one store with one 4-partition ring at the
// 2-replica SLA, prices published. Tests drive the decision engine
// directly for fine-grained control.
class DecisionTest : public ::testing::Test {
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

  Cluster cluster_{PricingParams{}};
  RingCatalog catalog_;
  VNodeRegistry vnodes_{4};
  RingId ring_ = 0;
  std::vector<RingPolicy> policies_;
  DecisionParams params_;
};

TEST_F(DecisionTest, RepairProposesReplicationBelowThreshold) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));  // one replica: availability 0 < th
  DecisionEngine engine(params_);
  const auto actions = engine.RepairPass(cluster_, catalog_, policies_);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kReplicate);
  EXPECT_EQ(actions[0].partition, p->id());
  // Best Eq. 3 target for a lone replica is the other continent.
  EXPECT_EQ(cluster_.server(actions[0].target)->location().continent(),
            1u);
}

TEST_F(DecisionTest, RepairSilentWhenSatisfied) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));  // availability 63 >= th(2)=31.5
  DecisionEngine engine(params_);
  EXPECT_TRUE(engine.RepairPass(cluster_, catalog_, policies_).empty());
}

TEST_F(DecisionTest, RepairProposesMultipleStepsForHighSla) {
  policies_[0].min_availability =
      AvailabilityModel::ThresholdForReplicas(4, 1.0);  // needs 4 replicas
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  DecisionEngine engine(params_);
  const auto actions = engine.RepairPass(cluster_, catalog_, policies_);
  EXPECT_EQ(actions.size(), 3u);  // hypothetical set grows to 4 replicas
  // All targets distinct and distinct from the source replica.
  for (size_t i = 0; i < actions.size(); ++i) {
    for (size_t j = i + 1; j < actions.size(); ++j) {
      EXPECT_NE(actions[i].target, actions[j].target);
    }
    EXPECT_NE(actions[i].target, At(0, 0, 0, 0));
  }
}

TEST_F(DecisionTest, RepairStepsCappedByParams) {
  params_.max_repair_steps_per_epoch = 1;
  policies_[0].min_availability =
      AvailabilityModel::ThresholdForReplicas(4, 1.0);
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  DecisionEngine engine(params_);
  EXPECT_EQ(engine.RepairPass(cluster_, catalog_, policies_).size(), 1u);
}

TEST_F(DecisionTest, RepairSkipsLostPartitions) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  ASSERT_TRUE(cluster_.FailServer(At(0, 0, 0, 0)).ok());
  DecisionEngine engine(params_);
  // No live replica -> no source -> no proposal (partition 0 lost; other
  // partitions have no replicas at all and no policy obligation... they
  // have zero replicas and are equally unrepairable).
  EXPECT_TRUE(engine.RepairPass(cluster_, catalog_, policies_).empty());
}

TEST_F(DecisionTest, RepairHonorsReplicaCap) {
  params_.max_replicas_per_partition = 1;
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  DecisionEngine engine(params_);
  EXPECT_TRUE(engine.RepairPass(cluster_, catalog_, policies_).empty());
}

TEST_F(DecisionTest, NegativeStreakSuicidesWhenRedundant) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));
  VirtualNode* extra = AddReplica(p, At(0, 1, 0, 0));
  // avail(all three) >= th; without `extra` still 63 >= th(2).
  for (int i = 0; i < params_.balance_window; ++i) {
    extra->balance.Record(-0.5);
  }
  DecisionEngine engine(params_);
  const auto actions = engine.EconomicPass(cluster_, catalog_, vnodes_,
                                           policies_, {});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kSuicide);
  EXPECT_EQ(actions[0].vnode, extra->id);
  EXPECT_EQ(actions[0].source, extra->server);
}

TEST_F(DecisionTest, NegativeStreakMigratesWhenSuicideWouldViolateSla) {
  Partition* p = catalog_.partition(0);
  // Two replicas exactly meeting th: killing either violates the SLA, so
  // a negative-balance vnode must migrate instead — and only if a cheaper
  // server exists. Make the current server expensive via price history.
  const ServerId a = At(0, 0, 0, 0);
  const ServerId b = At(1, 0, 0, 0);
  AddReplica(p, a);
  VirtualNode* v = AddReplica(p, b);
  // Inflate b's rent: heavy query usage -> high Eq. 1 load terms.
  Server* sb = cluster_.server(b);
  sb->ServeQueries(sb->resources().query_capacity_per_epoch);
  cluster_.BeginEpoch();  // publishes higher rent for b
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(-0.5);
  }
  DecisionEngine engine(params_);
  const auto actions = engine.EconomicPass(cluster_, catalog_, vnodes_,
                                           policies_, {});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kMigrate);
  EXPECT_EQ(actions[0].source, b);
  EXPECT_NE(actions[0].target, a);
  EXPECT_NE(actions[0].target, b);
  // The migration target must preserve the SLA: it stays on continent 1
  // (or anywhere at diversity >= th from a).
  const double avail_after = AvailabilityModel::OfServerIdsWith(
      cluster_, {a}, actions[0].target);
  EXPECT_GE(avail_after, policies_[0].min_availability);
}

TEST_F(DecisionTest, MinRentExitSkipsTheScanWhenNoTargetIsCheapEnough) {
  Partition* p = catalog_.partition(0);
  // Two replicas exactly meeting th, so the negative-streak vnode cannot
  // suicide and falls through to the migration leg.
  const ServerId a = At(0, 0, 0, 0);
  const ServerId b = At(1, 0, 0, 0);
  AddReplica(p, a);
  VirtualNode* v = AddReplica(p, b);
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(-0.5);
  }
  // b is dearer than the cheapest server, but by less than the savings
  // threshold: no target can pass the gate.
  ASSERT_TRUE(cluster_.server(b)->ReserveStorage(64 * kMiB).ok());
  cluster_.BeginEpoch();
  const Board& board = cluster_.board();
  ASSERT_GT(board.RentOf(b), board.min_rent());
  ASSERT_GE(board.min_rent(),
            board.RentOf(b) * (1.0 - params_.migration_savings_threshold));

  DecisionEngine engine(params_);
  CandidateContext candidates;
  candidates.Build(cluster_, params_.candidate, {nullptr});
  DecisionTally tally;
  ProposeContext pctx;
  pctx.candidates = &candidates;
  pctx.tally = &tally;
  EXPECT_TRUE(engine
                  .EconomicPass(cluster_, catalog_, vnodes_, policies_, {},
                                nullptr, &pctx)
                  .empty());
  pctx.FlushTally();
  EXPECT_EQ(candidates.counters().select_calls.load(), 0u);

  // Past the threshold the vnode scans once and migrates.
  Server* sb = cluster_.server(b);
  sb->ServeQueries(sb->resources().query_capacity_per_epoch);
  cluster_.BeginEpoch();
  candidates.Build(cluster_, params_.candidate, {nullptr});
  const auto actions = engine.EconomicPass(cluster_, catalog_, vnodes_,
                                           policies_, {}, nullptr, &pctx);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kMigrate);
  pctx.FlushTally();
  EXPECT_EQ(candidates.counters().select_calls.load(), 1u);
}

// The exit is exact: on random rents, the engine's migration leg matches
// a reference decision from the full Eq. 3 scan, and whenever the exit
// skips the scan, the scan's winner would have failed the savings gate.
TEST_F(DecisionTest, MinRentExitOnlyFiresWhenTheWinnerFailsTheGate) {
  const double keep = 1.0 - params_.migration_savings_threshold;
  DecisionEngine engine(params_);
  Rng rng(27);
  size_t fired = 0;
  size_t migrated = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Storage fills of up to a few percent spread rents by up to ~20%, so
    // the gate both holds and fails.
    const double max_fill = rng.Uniform(0.0, 0.05);
    std::vector<uint64_t> reserved(cluster_.size());
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      Server* s = cluster_.server(id);
      reserved[id] = static_cast<uint64_t>(
          rng.Uniform(0.0, max_fill) *
          static_cast<double>(s->resources().storage_capacity));
      ASSERT_TRUE(s->ReserveStorage(reserved[id]).ok());
    }
    cluster_.BeginEpoch();
    const Board& board = cluster_.board();

    // One partition at exactly th: its negative-streak vnode on `self`
    // cannot suicide, so it takes the migration leg.
    RingCatalog catalog;
    VNodeRegistry vnodes(params_.balance_window);
    ASSERT_TRUE(catalog.CreateRing(0, 1).ok());
    Partition* p = catalog.partition(0);
    const auto pick = [&](uint32_t continent) {
      return At(continent, static_cast<uint32_t>(rng.UniformInt(0, 1)),
                static_cast<uint32_t>(rng.UniformInt(0, 1)),
                static_cast<uint32_t>(rng.UniformInt(0, 1)));
    };
    const ServerId other = pick(0);
    const ServerId self = pick(1);
    for (ServerId server : {other, self}) {
      const VNodeId vid = catalog.AllocateVNodeId();
      ASSERT_TRUE(p->AddReplica(server, vid, 0).ok());
      VirtualNode* v = vnodes.Create(vid, p->id(), p->ring(), server, 0);
      for (int i = 0; server == self && i < params_.balance_window; ++i) {
        v->balance.Record(-0.5);
      }
    }
    RentSurcharge ledger;
    ledger.Add(pick(1), rng.Uniform(-0.2, 0.2));

    // Reference: the full scan, then the savings and availability gates.
    const auto winner = SelectTargetForSet(
        cluster_, {other}, p->bytes(), nullptr, params_.candidate, {self},
        &ledger, /*tie_break_salt=*/p->id());
    ASSERT_TRUE(winner.ok());
    const double max_target_rent = board.RentOf(self) * keep;
    const bool expect_migrate =
        board.RentOf(winner->server) < max_target_rent &&
        AvailabilityModel::OfServerIdsWith(cluster_, {other},
                                           winner->server) >=
            policies_[0].min_availability;

    CandidateContext candidates;
    candidates.Build(cluster_, params_.candidate, {nullptr});
    DecisionTally tally;
    ProposeContext pctx;
    pctx.candidates = &candidates;
    pctx.tally = &tally;
    const auto actions = engine.EconomicPass(cluster_, catalog, vnodes,
                                             policies_, {}, &ledger, &pctx);
    ASSERT_EQ(actions.size(), expect_migrate ? 1u : 0u) << "trial " << trial;
    if (expect_migrate) {
      EXPECT_EQ(actions[0].type, ActionType::kMigrate);
      EXPECT_EQ(actions[0].target, winner->server);
      ++migrated;
    }
    pctx.FlushTally();
    if (candidates.counters().select_calls.load() == 0) {
      ++fired;
      EXPECT_GE(board.RentOf(winner->server), max_target_rent)
          << "trial " << trial;
    }
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      ASSERT_TRUE(cluster_.server(id)->ReleaseStorage(reserved[id]).ok());
    }
  }
  EXPECT_GT(fired, 20u);
  EXPECT_GT(migrated, 20u);
}

// The replicate exit is exact: on random rents and traffic, the engine's
// growth leg matches a reference decision from the full Eq. 3 scan, and
// whenever the exit skips the scan (no select counted), the reference
// rejected the replica.
TEST_F(DecisionTest, ReplicateExitOnlyFiresWhenTheReferenceRejects) {
  DecisionEngine engine(params_);
  Rng rng(28);
  size_t fired = 0;
  size_t scanned_and_rejected = 0;
  size_t replicated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const double max_fill = rng.Uniform(0.0, 0.05);
    std::vector<uint64_t> reserved(cluster_.size());
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      Server* s = cluster_.server(id);
      reserved[id] = static_cast<uint64_t>(
          rng.Uniform(0.0, max_fill) *
          static_cast<double>(s->resources().storage_capacity));
      ASSERT_TRUE(s->ReserveStorage(reserved[id]).ok());
    }
    cluster_.BeginEpoch();
    const Board& board = cluster_.board();

    // One partition at exactly th whose second vnode holds a positive
    // streak: it takes the growth leg.
    RingCatalog catalog;
    VNodeRegistry vnodes(params_.balance_window);
    ASSERT_TRUE(catalog.CreateRing(0, 1).ok());
    Partition* p = catalog.partition(0);
    const auto pick = [&](uint32_t continent) {
      return At(continent, static_cast<uint32_t>(rng.UniformInt(0, 1)),
                static_cast<uint32_t>(rng.UniformInt(0, 1)),
                static_cast<uint32_t>(rng.UniformInt(0, 1)));
    };
    const ServerId first = pick(0);
    const ServerId second = pick(1);
    for (ServerId server : {first, second}) {
      const VNodeId vid = catalog.AllocateVNodeId();
      ASSERT_TRUE(p->AddReplica(server, vid, 0).ok());
      VirtualNode* v = vnodes.Create(vid, p->id(), p->ring(), server, 0);
      for (int i = 0; server == second && i < params_.balance_window; ++i) {
        v->balance.Record(0.5);
      }
    }
    RentSurcharge ledger;
    ledger.Add(pick(rng.UniformInt(0, 1) == 0 ? 0 : 1),
               rng.Uniform(-0.2, 0.2));

    // Reference: the full scan, then the popularity gate (g = 1).
    const auto winner = SelectTargetForSet(
        cluster_, {first, second}, p->bytes(), nullptr, params_.candidate,
        {}, &ledger, /*tie_break_salt=*/p->id());
    ASSERT_TRUE(winner.ok());

    // Traffic whose projected utility lands around the two break-even
    // points, the cheapest server's and the winner's, so the exit fires,
    // the scan rejects, and the replica goes ahead.
    PartitionStatsTable stats;
    stats[p->id()].write_bytes =
        static_cast<uint64_t>(rng.Uniform(0.0, 5.0e6));
    const double consistency =
        params_.consistency.Cost(3, stats.Get(p->id()).write_bytes);
    const double floor_even = board.min_rent() + consistency;
    const double winner_even = board.RentOf(winner->server) + consistency;
    const double aim =
        floor_even + rng.Uniform(-0.5, 1.5) * (winner_even - floor_even) +
        rng.Uniform(-0.05, 0.05) * floor_even;
    stats[p->id()].queries = static_cast<uint64_t>(
        std::max(0.0, aim) * 3.0 / params_.utility.value_per_query);
    const double utility =
        params_.utility.value_per_query *
        (static_cast<double>(stats.Get(p->id()).queries) / 3.0);
    const bool expect_replicate = !(utility <= winner_even);

    CandidateContext candidates;
    candidates.Build(cluster_, params_.candidate, {nullptr});
    DecisionTally tally;
    ProposeContext pctx;
    pctx.candidates = &candidates;
    pctx.tally = &tally;
    const auto actions = engine.EconomicPass(cluster_, catalog, vnodes,
                                             policies_, stats, &ledger,
                                             &pctx);
    ASSERT_EQ(actions.size(), expect_replicate ? 1u : 0u)
        << "trial " << trial;
    if (expect_replicate) {
      EXPECT_EQ(actions[0].type, ActionType::kReplicate);
      EXPECT_EQ(actions[0].target, winner->server);
      EXPECT_EQ(actions[0].score, winner->score);
      ++replicated;
    }
    pctx.FlushTally();
    if (candidates.counters().select_calls.load() == 0) {
      ++fired;
      EXPECT_FALSE(expect_replicate) << "trial " << trial;
    } else if (!expect_replicate) {
      ++scanned_and_rejected;
    }
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      ASSERT_TRUE(cluster_.server(id)->ReleaseStorage(reserved[id]).ok());
    }
  }
  EXPECT_GT(fired, 30u);
  EXPECT_GT(scanned_and_rejected, 10u);
  EXPECT_GT(replicated, 30u);
}

// A ring with a client mix keeps the scan: the projected utility depends
// on the target's proximity, so min_rent alone cannot settle the gate.
TEST_F(DecisionTest, ReplicateExitLeavesMixedRingsOnTheScan) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  VirtualNode* v = AddReplica(p, At(1, 0, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(5.0);
  }
  PartitionStatsTable stats;
  stats[p->id()].queries = 3;  // far below any rent

  DecisionEngine engine(params_);
  CandidateContext candidates;
  candidates.Build(cluster_, params_.candidate, {nullptr});
  DecisionTally tally;
  ProposeContext pctx;
  pctx.candidates = &candidates;
  pctx.tally = &tally;
  EXPECT_TRUE(engine
                  .EconomicPass(cluster_, catalog_, vnodes_, policies_,
                                stats, nullptr, &pctx)
                  .empty());
  pctx.FlushTally();
  EXPECT_EQ(candidates.counters().select_calls.load(), 0u);

  ClientMix mix;
  mix.loads.push_back({Location::Of(0, 0, 0, 0, 0, 0), 10.0});
  mix.loads.push_back({Location::Of(1, 0, 0, 0, 0, 0), 5.0});
  policies_[0].mix = &mix;
  candidates.Build(cluster_, params_.candidate, {nullptr, &mix});
  EXPECT_TRUE(engine
                  .EconomicPass(cluster_, catalog_, vnodes_, policies_,
                                stats, nullptr, &pctx)
                  .empty());
  pctx.FlushTally();
  EXPECT_EQ(candidates.counters().select_calls.load(), 1u);
}

TEST_F(DecisionTest, NoActionWithoutStreak) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  VirtualNode* v = AddReplica(p, At(1, 0, 0, 0));
  v->balance.Record(-0.5);  // streak not complete
  DecisionEngine engine(params_);
  EXPECT_TRUE(
      engine.EconomicPass(cluster_, catalog_, vnodes_, policies_, {})
          .empty());
}

TEST_F(DecisionTest, PositiveStreakReplicatesWhenProfitable) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  VirtualNode* v = AddReplica(p, At(1, 0, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(5.0);
  }
  PartitionStatsTable stats;
  stats[p->id()].queries = 10000;  // plenty of demand
  DecisionEngine engine(params_);
  const auto actions =
      engine.EconomicPass(cluster_, catalog_, vnodes_, policies_, stats);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kReplicate);
  EXPECT_EQ(actions[0].partition, p->id());
}

TEST_F(DecisionTest, PositiveStreakDoesNotReplicateWithoutDemand) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  VirtualNode* v = AddReplica(p, At(1, 0, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(5.0);
  }
  PartitionStatsTable stats;
  stats[p->id()].queries = 3;  // projected share cannot cover rent
  DecisionEngine engine(params_);
  EXPECT_TRUE(
      engine.EconomicPass(cluster_, catalog_, vnodes_, policies_, stats)
          .empty());
}

TEST_F(DecisionTest, WriteHeavyPartitionHesitatesToReplicate) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  VirtualNode* v = AddReplica(p, At(1, 0, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(5.0);
  }
  PartitionStatsTable stats;
  stats[p->id()].queries = 600;
  stats[p->id()].write_bytes = 0;
  DecisionEngine base_engine(params_);
  ASSERT_EQ(base_engine
                .EconomicPass(cluster_, catalog_, vnodes_, policies_, stats)
                .size(),
            1u);
  // Same demand but enormous write traffic: consistency cost wins.
  stats[p->id()].write_bytes = 1000 * kMB;
  ASSERT_TRUE(base_engine
                  .EconomicPass(cluster_, catalog_, vnodes_, policies_,
                                stats)
                  .empty());
}

TEST_F(DecisionTest, ReplicaCapBlocksEconomicReplication) {
  params_.max_replicas_per_partition = 2;
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  VirtualNode* v = AddReplica(p, At(1, 0, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(5.0);
  }
  PartitionStatsTable stats;
  stats[p->id()].queries = 10000;
  DecisionEngine engine(params_);
  EXPECT_TRUE(
      engine.EconomicPass(cluster_, catalog_, vnodes_, policies_, stats)
          .empty());
}

TEST_F(DecisionTest, UnderReplicatedPartitionLeftToRepairPass) {
  Partition* p = catalog_.partition(0);
  VirtualNode* v = AddReplica(p, At(0, 0, 0, 0));  // below th
  for (int i = 0; i < params_.balance_window; ++i) {
    v->balance.Record(-5.0);
  }
  DecisionEngine engine(params_);
  // The economic pass must not suicide/migrate an under-replicated
  // partition's last replica.
  EXPECT_TRUE(
      engine.EconomicPass(cluster_, catalog_, vnodes_, policies_, {})
          .empty());
}

TEST_F(DecisionTest, OneActionPerPartitionPerEpoch) {
  Partition* p = catalog_.partition(0);
  AddReplica(p, At(0, 0, 0, 0));
  AddReplica(p, At(1, 0, 0, 0));
  VirtualNode* e1 = AddReplica(p, At(0, 1, 0, 0));
  VirtualNode* e2 = AddReplica(p, At(1, 1, 0, 0));
  for (int i = 0; i < params_.balance_window; ++i) {
    e1->balance.Record(-0.5);
    e2->balance.Record(-0.5);
  }
  DecisionEngine engine(params_);
  const auto actions = engine.EconomicPass(cluster_, catalog_, vnodes_,
                                           policies_, {});
  EXPECT_EQ(actions.size(), 1u);  // not two suicides at once
}

}  // namespace
}  // namespace skute
