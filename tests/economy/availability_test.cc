#include "skute/economy/availability.h"

#include <gtest/gtest.h>

#include "skute/economy/candidate.h"
#include "skute/topology/topology.h"

namespace skute {
namespace {

// Cloud fixture: 2 continents x 2 countries x 1 dc x 1 room x 2 racks x
// 2 servers; all confidence 1 unless remapped.
class AvailabilityTest : public ::testing::Test {
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
  }

  /// Finds a server id at the given location.
  ServerId At(uint32_t c, uint32_t n, uint32_t k, uint32_t s) {
    const Location want = Location::Of(c, n, 0, 0, k, s);
    for (ServerId id = 0; id < cluster_.size(); ++id) {
      if (cluster_.server(id)->location() == want) return id;
    }
    ADD_FAILURE() << "no server at " << want.ToString();
    return kInvalidServer;
  }

  Cluster cluster_{PricingParams{}};
};

TEST_F(AvailabilityTest, SingleReplicaIsZero) {
  std::vector<const Server*> one{cluster_.server(0)};
  EXPECT_EQ(AvailabilityModel::Of(one), 0.0);
  EXPECT_EQ(AvailabilityModel::Of({}), 0.0);
}

TEST_F(AvailabilityTest, PairAcrossContinents) {
  std::vector<const Server*> pair{cluster_.server(At(0, 0, 0, 0)),
                                  cluster_.server(At(1, 0, 0, 0))};
  EXPECT_DOUBLE_EQ(AvailabilityModel::Of(pair), 63.0);
}

TEST_F(AvailabilityTest, PairSameRack) {
  std::vector<const Server*> pair{cluster_.server(At(0, 0, 0, 0)),
                                  cluster_.server(At(0, 0, 0, 1))};
  EXPECT_DOUBLE_EQ(AvailabilityModel::Of(pair), 1.0);
}

TEST_F(AvailabilityTest, TripleSumsAllPairs) {
  // Two servers in one rack (d=1) + one on another continent (63, 63).
  std::vector<const Server*> three{cluster_.server(At(0, 0, 0, 0)),
                                   cluster_.server(At(0, 0, 0, 1)),
                                   cluster_.server(At(1, 1, 1, 1))};
  EXPECT_DOUBLE_EQ(AvailabilityModel::Of(three), 1.0 + 63.0 + 63.0);
}

TEST_F(AvailabilityTest, ConfidenceScalesQuadratically) {
  Server a(100, Location::Of(0, 0, 0, 0, 0, 0), ServerResources{},
           ServerEconomics{100.0, 0.5});
  Server b(101, Location::Of(1, 0, 0, 0, 0, 0), ServerResources{},
           ServerEconomics{100.0, 0.8});
  EXPECT_DOUBLE_EQ(AvailabilityModel::PairTerm(a, b), 0.5 * 0.8 * 63.0);
  std::vector<const Server*> pair{&a, &b};
  EXPECT_DOUBLE_EQ(AvailabilityModel::Of(pair), 0.5 * 0.8 * 63.0);
}

TEST_F(AvailabilityTest, OfflineServersContributeNothing) {
  const ServerId a = At(0, 0, 0, 0);
  const ServerId b = At(1, 0, 0, 0);
  std::vector<const Server*> pair{cluster_.server(a), cluster_.server(b)};
  ASSERT_TRUE(cluster_.FailServer(b).ok());
  EXPECT_EQ(AvailabilityModel::Of(pair), 0.0);
}

TEST_F(AvailabilityTest, OfPartitionResolvesReplicas) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  (void)p.AddReplica(At(0, 0, 0, 0), 1, 0);
  (void)p.AddReplica(At(1, 0, 0, 0), 2, 0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfPartition(p, cluster_), 63.0);
}

TEST_F(AvailabilityTest, OfPartitionWithoutExcludesOne) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  const ServerId a = At(0, 0, 0, 0);
  const ServerId b = At(1, 0, 0, 0);
  const ServerId c = At(0, 1, 0, 0);
  (void)p.AddReplica(a, 1, 0);
  (void)p.AddReplica(b, 2, 0);
  (void)p.AddReplica(c, 3, 0);
  // full: ab=63, ac=31, bc=63 => 157
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfPartition(p, cluster_), 157.0);
  // without c: 63
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfPartitionWithout(p, cluster_, c),
                   63.0);
}

TEST_F(AvailabilityTest, OfServerIdsWithAddsCandidate) {
  Partition p(0, 0, KeyRange{0, 0}, 1.0);
  const ServerId a = At(0, 0, 0, 0);
  (void)p.AddReplica(a, 1, 0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfServerIdsWith(
                       cluster_, ReplicaServerSet(p), At(1, 0, 0, 0)),
                   63.0);
}

TEST_F(AvailabilityTest, OfServerIdsVariants) {
  const ServerId a = At(0, 0, 0, 0);
  const ServerId b = At(1, 0, 0, 0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfServerIds(cluster_, {a, b}), 63.0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfServerIdsWith(cluster_, {a}, b),
                   63.0);
  // Unknown ids are skipped, not fatal.
  EXPECT_DOUBLE_EQ(AvailabilityModel::OfServerIds(cluster_, {a, 9999}),
                   0.0);
}

TEST(AvailabilityMathTest, MaxForReplicas) {
  EXPECT_EQ(AvailabilityModel::MaxForReplicas(0, 1.0), 0.0);
  EXPECT_EQ(AvailabilityModel::MaxForReplicas(1, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::MaxForReplicas(2, 1.0), 63.0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::MaxForReplicas(3, 1.0), 3 * 63.0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::MaxForReplicas(4, 1.0), 6 * 63.0);
  EXPECT_DOUBLE_EQ(AvailabilityModel::MaxForReplicas(2, 0.5),
                   63.0 * 0.25);
}

TEST(AvailabilityMathTest, ThresholdLadderForcesReplicaCounts) {
  // th(k) must sit strictly between the best k-1 placement and the best
  // k placement, for the paper's 2/3/4 ladder.
  for (int k = 2; k <= 4; ++k) {
    const double th = AvailabilityModel::ThresholdForReplicas(k, 1.0);
    EXPECT_GT(th, AvailabilityModel::MaxForReplicas(k - 1, 1.0))
        << "k=" << k;
    EXPECT_LT(th, AvailabilityModel::MaxForReplicas(k, 1.0)) << "k=" << k;
  }
}

TEST(AvailabilityMathTest, ThresholdMonotoneInK) {
  double prev = 0.0;
  for (int k = 2; k <= 8; ++k) {
    const double th = AvailabilityModel::ThresholdForReplicas(k, 1.0);
    EXPECT_GT(th, prev);
    prev = th;
  }
}

TEST(AvailabilityMathTest, ThresholdClampsKBelow2) {
  EXPECT_DOUBLE_EQ(AvailabilityModel::ThresholdForReplicas(0, 1.0),
                   AvailabilityModel::ThresholdForReplicas(2, 1.0));
}

class ThresholdPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ThresholdPropertyTest, SatisfiableByKDispersedReplicas) {
  const auto [k, conf] = GetParam();
  const double th = AvailabilityModel::ThresholdForReplicas(k, conf);
  EXPECT_LE(th, AvailabilityModel::MaxForReplicas(k, conf));
  EXPECT_GT(th, AvailabilityModel::MaxForReplicas(k - 1, conf));
}

INSTANTIATE_TEST_SUITE_P(
    Ladder, ThresholdPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6),
                       ::testing::Values(0.5, 0.9, 1.0)));

}  // namespace
}  // namespace skute
