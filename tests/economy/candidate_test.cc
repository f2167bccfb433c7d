#include "skute/economy/candidate.h"

#include <gtest/gtest.h>

#include "skute/topology/topology.h"

namespace skute {
namespace {

// Fixture: 2 continents x 2 countries x 2 racks x 2 servers = 16 servers,
// prices published once so Eq. 3's rent term is finite.
class CandidateTest : public ::testing::Test {
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
    cluster_.BeginEpoch();  // publish prices
  }

  ServerId At(uint32_t c, uint32_t n, uint32_t k, uint32_t s) {
    const Location want = Location::Of(c, n, 0, 0, k, s);
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      if (cluster_.server(id)->location() == want) return id;
    }
    return kInvalidServer;
  }

  // Live-mean pricing: fresh servers price identically to the frozen
  // default (the EWMA starts at the same prior), and the tie-break test
  // can earn a discount through usage history.
  static PricingParams LivePricing() {
    PricingParams params;
    params.use_live_mean_utilization = true;
    return params;
  }

  // Eq. 3 target for one more replica of `p`, salted by the partition id
  // as the decision passes salt it.
  Result<CandidateChoice> SelectFor(
      const Partition& p, const CandidateParams& params,
      const std::vector<ServerId>& exclude = {}) {
    return SelectTargetForSet(cluster_, ReplicaServerSet(p), p.bytes(),
                              nullptr, params, exclude, nullptr, p.id());
  }

  Cluster cluster_{LivePricing()};
  CandidateParams params_;
};

TEST_F(CandidateTest, ScoreIsDiversityMinusRent) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  const ServerId a = At(0, 0, 0, 0);
  (void)p.AddReplica(a, 1, 0);
  const Server* candidate = cluster_.server(At(1, 0, 0, 0));
  const double score = ScoreCandidateForSet(cluster_, {a}, *candidate,
                                            nullptr, params_);
  EXPECT_DOUBLE_EQ(score,
                   63.0 - cluster_.board().RentOf(candidate->id()));
}

TEST_F(CandidateTest, PrefersOtherContinentForSecondReplica) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  auto choice = SelectFor(p, params_);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(cluster_.server(choice->server)->location().continent(), 1u);
}

TEST_F(CandidateTest, NeverPicksExistingReplicaServer) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  (void)p.AddReplica(At(1, 0, 0, 0), 2, 0);
  for (int i = 0; i < 4; ++i) {
    auto choice = SelectFor(p, params_);
    ASSERT_TRUE(choice.ok());
    EXPECT_FALSE(p.HasReplicaOn(choice->server));
    (void)p.AddReplica(choice->server, 10 + i, 0);
  }
}

TEST_F(CandidateTest, RespectsExcludeList) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  // Exclude the whole second continent; the best remaining target is a
  // different country on continent 0.
  std::vector<ServerId> exclude;
  for (ServerId id = 0; id < cluster_.size(); ++id) {
    if (cluster_.server(id)->location().continent() == 1) {
      exclude.push_back(id);
    }
  }
  auto choice = SelectFor(p, params_, exclude);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(cluster_.server(choice->server)->location().continent(), 0u);
  EXPECT_EQ(cluster_.server(choice->server)->location().country(), 1u);
}

TEST_F(CandidateTest, SkipsOfflineServers) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  // Kill continent 1 entirely.
  for (ServerId id = 0; id < cluster_.size(); ++id) {
    if (cluster_.server(id)->location().continent() == 1) {
      ASSERT_TRUE(cluster_.FailServer(id).ok());
    }
  }
  cluster_.BeginEpoch();
  auto choice = SelectFor(p, params_);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(cluster_.server(choice->server)->location().continent(), 0u);
}

TEST_F(CandidateTest, SkipsServersWithoutStorage) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  p.UpsertObject(1, 1000);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  // Fill every continent-1 server so only continent 0 has room.
  for (ServerId id = 0; id < cluster_.size(); ++id) {
    Server* s = cluster_.server(id);
    if (s->location().continent() == 1) {
      ASSERT_TRUE(
          s->ReserveStorage(s->resources().storage_capacity - 100).ok());
    }
  }
  auto choice = SelectFor(p, params_);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(cluster_.server(choice->server)->location().continent(), 0u);
}

TEST_F(CandidateTest, NotFoundWhenNothingFeasible) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  p.UpsertObject(1, 1000);
  for (ServerId id = 0; id < cluster_.size(); ++id) {
    Server* s = cluster_.server(id);
    ASSERT_TRUE(
        s->ReserveStorage(s->resources().storage_capacity).ok());
  }
  EXPECT_TRUE(SelectFor(p, params_).status().IsNotFound());
}

TEST_F(CandidateTest, RentBreaksDiversityTies) {
  // Make one continent-1 server cheaper by giving it a *months-long*
  // history of high utilization (higher trailing mean -> lower marginal
  // price `up`); the EWMA's monthly time constant needs thousands of
  // epochs to move.
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  Server* cheap = cluster_.server(At(1, 1, 1, 1));
  ASSERT_TRUE(
      cheap->ReserveStorage(cheap->resources().storage_capacity).ok());
  for (int i = 0; i < 3000; ++i) {
    cheap->ServeQueries(cheap->resources().query_capacity_per_epoch);
    cheap->BeginEpoch();
  }
  ASSERT_TRUE(
      cheap->ReleaseStorage(cheap->resources().storage_capacity).ok());
  // One quiet epoch so Eq. 1's beta term (last epoch's query load) does
  // not mask the cheap marginal price the history just earned.
  cheap->BeginEpoch();
  cluster_.board().UpdatePrices(cluster_.AllServers());
  // All continent-1 servers offer diversity 63; the utilization history
  // makes this one's rent lowest.
  double min_rent = cluster_.board().RentOf(cheap->id());
  for (ServerId id = 0; id < cluster_.size(); ++id) {
    if (cluster_.server(id)->location().continent() == 1) {
      ASSERT_GE(cluster_.board().RentOf(id), min_rent);
    }
  }
  auto choice = SelectFor(p, params_);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->server, cheap->id());
}

TEST_F(CandidateTest, MovingFromDropsOwnDiversity) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  const ServerId a = At(0, 0, 0, 0);
  const ServerId b = At(1, 0, 0, 0);
  (void)p.AddReplica(a, 1, 0);
  (void)p.AddReplica(b, 2, 0);
  const Server* candidate = cluster_.server(At(0, 1, 0, 0));
  // Scoring a migration of the replica on `a`: only b contributes.
  const double score =
      ScoreCandidateForSet(cluster_, ReplicaServerSet(p, a), *candidate,
                           nullptr, params_);
  EXPECT_DOUBLE_EQ(
      score, 63.0 - cluster_.board().RentOf(candidate->id()));
}

TEST_F(CandidateTest, ReplicaServerSetHelper) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(3, 1, 0);
  (void)p.AddReplica(5, 2, 0);
  EXPECT_EQ(ReplicaServerSet(p).size(), 2u);
  const auto without = ReplicaServerSet(p, 3);
  ASSERT_EQ(without.size(), 1u);
  EXPECT_EQ(without[0], 5u);
}

TEST_F(CandidateTest, DiversityWeightScalesTradeoff) {
  // With a tiny diversity weight, rent dominates: the cheapest feasible
  // server wins even if nearby.
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  CandidateParams tiny;
  tiny.diversity_weight = 1e-9;
  auto choice = SelectFor(p, tiny);
  ASSERT_TRUE(choice.ok());
  double min_rent = cluster_.board().RentOf(choice->server);
  for (ServerId id = 0; id < cluster_.size(); ++id) {
    if (id == At(0, 0, 0, 0)) continue;
    EXPECT_GE(cluster_.board().RentOf(id) + 1e-12, min_rent);
  }
}

TEST_F(CandidateTest, EmptyReplicaSetPicksCheapest) {
  // Bootstrap case: no diversity term anywhere, so Eq. 3 reduces to
  // argmin rent.
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  auto choice = SelectFor(p, params_);
  ASSERT_TRUE(choice.ok());
  const double rent = cluster_.board().RentOf(choice->server);
  EXPECT_DOUBLE_EQ(rent, cluster_.board().min_rent());
}

}  // namespace
}  // namespace skute
