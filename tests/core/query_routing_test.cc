// The query-routing core: deterministic largest-remainder apportionment
// (the remainder-assignment bugfix), zero-weight target exclusion, the
// QueryBatch container and partition stats table, and the share/apply
// split that makes the route plane re-entrant.

#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "skute/common/random.h"
#include "skute/core/query_routing.h"
#include "skute/core/store.h"
#include "skute/topology/topology.h"
#include "skute/workload/geo.h"

namespace skute {
namespace {

uint64_t Sum(const std::vector<uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), uint64_t{0});
}

TEST(ApportionTest, ExactProportionsNeedNoRemainder) {
  const std::vector<uint64_t> shares =
      ApportionLargestRemainder({5.0, 3.0, 2.0}, 10);
  EXPECT_EQ(shares, (std::vector<uint64_t>{5, 3, 2}));
}

TEST(ApportionTest, RemainderGoesToLargestFraction) {
  // Ideals are {3.33.., 6.66..}: the single remainder unit belongs to
  // index 1, not to whichever target happens to be last.
  const std::vector<uint64_t> shares =
      ApportionLargestRemainder({1.0, 2.0}, 10);
  EXPECT_EQ(shares, (std::vector<uint64_t>{3, 7}));
}

TEST(ApportionTest, FractionTiesBreakToLowestIndex) {
  // Ideals are {3.33.., 3.33.., 3.33..}: one remainder unit, all
  // fractions tie, so index 0 rounds up.
  const std::vector<uint64_t> shares =
      ApportionLargestRemainder({1.0, 1.0, 1.0}, 10);
  EXPECT_EQ(shares, (std::vector<uint64_t>{4, 3, 3}));
}

TEST(ApportionTest, ZeroWeightReceivesNothing) {
  const std::vector<uint64_t> shares =
      ApportionLargestRemainder({0.0, 1.0, 0.0, 1.0}, 101);
  EXPECT_EQ(shares[0], 0u);
  EXPECT_EQ(shares[2], 0u);
  EXPECT_EQ(Sum(shares), 101u);
}

TEST(ApportionTest, AllZeroWeightsYieldAllZeroShares) {
  const std::vector<uint64_t> shares =
      ApportionLargestRemainder({0.0, 0.0}, 50);
  EXPECT_EQ(shares, (std::vector<uint64_t>{0, 0}));
}

TEST(ApportionTest, PropertySharesSumToCountAndAreDeterministic) {
  Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = static_cast<size_t>(1 + rng.UniformInt(0, 7));
    std::vector<double> weights(n);
    bool any_positive = false;
    for (double& w : weights) {
      // A third of the entries are zero-weight (unreachable replicas).
      w = rng.Bernoulli(1.0 / 3.0) ? 0.0 : rng.Uniform(0.01, 10.0);
      any_positive |= w > 0.0;
    }
    const uint64_t count = rng.UniformInt(0, 100000);
    const std::vector<uint64_t> shares =
        ApportionLargestRemainder(weights, count);
    ASSERT_EQ(shares.size(), n);
    if (any_positive) {
      EXPECT_EQ(Sum(shares), count) << "trial " << trial;
    } else {
      EXPECT_EQ(Sum(shares), 0u) << "trial " << trial;
    }
    for (size_t i = 0; i < n; ++i) {
      if (weights[i] <= 0.0) {
        EXPECT_EQ(shares[i], 0u) << "trial " << trial << " index " << i;
      }
    }
    // Pure function: same inputs, same shares.
    EXPECT_EQ(ApportionLargestRemainder(weights, count), shares);
  }
}

TEST(QueryBatchTest, AccumulatesAndTotals) {
  VirtualRing ring(0, 0);
  ASSERT_TRUE(ring.InitializePartitions(2, 0).ok());
  const PartitionId a = ring.partitions()[0]->id();
  const PartitionId b = ring.partitions()[1]->id();

  QueryBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.Add(a, 10);
  batch.Add(a, 5);
  batch.Add(b, 0);  // no-op
  EXPECT_EQ(batch.CountFor(a), 15u);
  EXPECT_EQ(batch.CountFor(b), 0u);
  EXPECT_EQ(batch.total(), 15u);
  EXPECT_FALSE(batch.empty());
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.total(), 0u);
}

TEST(QueryBatchTest, ReadsPastTheEndAreZeroAndClearResets) {
  QueryBatch batch;
  EXPECT_EQ(batch.CountFor(0), 0u);
  EXPECT_EQ(batch.CountFor(kInvalidPartition), 0u);
  batch.Add(kInvalidPartition, 7);  // no-op
  EXPECT_TRUE(batch.empty());

  batch.Add(5, 3);
  batch.Add(2, 4);
  EXPECT_EQ(batch.CountFor(5), 3u);
  EXPECT_EQ(batch.CountFor(2), 4u);
  EXPECT_EQ(batch.CountFor(3), 0u);  // inside the table, never added
  EXPECT_EQ(batch.CountFor(6), 0u);  // past the end
  EXPECT_EQ(batch.total(), 7u);
  EXPECT_FALSE(batch.empty());

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.total(), 0u);
  EXPECT_EQ(batch.CountFor(5), 0u);
  EXPECT_EQ(batch.CountFor(2), 0u);
  batch.Add(2, 1);  // counts again from zero
  EXPECT_EQ(batch.CountFor(2), 1u);
}

TEST(PartitionStatsTableTest, ReadsPastTheEndAreZeroAndClearResets) {
  PartitionStatsTable stats;
  EXPECT_EQ(stats.Get(0).queries, 0u);
  EXPECT_EQ(stats.Get(kInvalidPartition).write_bytes, 0u);

  stats[4].queries += 9;
  stats[4].write_bytes += 100;
  stats[1].queries += 2;
  EXPECT_EQ(stats.Get(4).queries, 9u);
  EXPECT_EQ(stats.Get(4).write_bytes, 100u);
  EXPECT_EQ(stats.Get(1).queries, 2u);
  EXPECT_EQ(stats.Get(2).queries, 0u);  // inside the table, never written
  EXPECT_EQ(stats.Get(5).queries, 0u);  // past the end

  stats.Clear();
  for (PartitionId id = 0; id < 6; ++id) {
    EXPECT_EQ(stats.Get(id).queries, 0u) << id;
    EXPECT_EQ(stats.Get(id).write_bytes, 0u) << id;
  }
  stats[4].queries += 1;  // counts again from zero
  EXPECT_EQ(stats.Get(4).queries, 1u);
}

// --- Store-level routing semantics ------------------------------------------

/// A 16-server store with one ring, deterministically constructed —
/// building it twice yields bit-identical placements, which lets the
/// tests compare the serial and batched routing paths structurally.
struct RoutingWorld {
  RoutingWorld(uint32_t partitions, uint32_t replicas,
               bool hotspot_mix = false) {
    GridSpec spec;
    spec.continents = 2;
    spec.countries_per_continent = 2;
    spec.datacenters_per_country = 1;
    spec.rooms_per_datacenter = 1;
    spec.racks_per_room = 2;
    spec.servers_per_rack = 2;
    auto grid = BuildGrid(spec);
    EXPECT_TRUE(grid.ok());
    ServerResources res;
    res.query_capacity_per_epoch = 1000000;
    for (const Location& loc : *grid) {
      cluster.AddServer(loc, res, ServerEconomics{});
    }
    SkuteOptions options;
    options.track_real_data = false;
    store = std::make_unique<SkuteStore>(&cluster, options);
    const AppId app = store->CreateApplication("route");
    ring = store->AttachRing(app, SlaLevel::ForReplicas(replicas, 1.0),
                             partitions)
               .value();
    if (hotspot_mix) {
      (void)store->SetClientMix(
          ring, HotspotMix(spec, Location::Of(0, 0, 0, 0, 0, 0), 0.7));
    }
    for (int i = 0; i < 6; ++i) {  // repair up to the SLA replica count
      store->BeginEpoch();
      store->EndEpoch();
    }
    store->BeginEpoch();
  }

  /// Flattened per-vnode (queries_routed, queries_served) in catalog
  /// order — the structural routing fingerprint.
  std::vector<uint64_t> Counters() const {
    std::vector<uint64_t> out;
    for (const auto& p : store->catalog().ring(ring)->partitions()) {
      for (const ReplicaInfo& rep : p->replicas()) {
        const VirtualNode* v = store->vnodes().Find(rep.vnode);
        out.push_back(v->queries_routed);
        out.push_back(v->queries_served);
      }
    }
    return out;
  }

  Cluster cluster{PricingParams{}};
  std::unique_ptr<SkuteStore> store;
  RingId ring = 0;
};

TEST(RoutingStoreTest, RemainderSpreadsByLargestFraction) {
  RoutingWorld world(/*partitions=*/1, /*replicas=*/3);
  Partition* p =
      world.store->catalog().ring(world.ring)->partitions()[0].get();
  ASSERT_EQ(p->replica_count(), 3u);

  // Uniform weights, 301 queries over 3 replicas: ideals are 100.33
  // each, so exactly one replica serves 101 — and the tie-break hands it
  // to the first, not the last (the pre-fix code gave the whole
  // remainder to the final target).
  world.store->RouteQueriesToPartition(p, 301);
  std::vector<uint64_t> routed;
  for (const ReplicaInfo& r : p->replicas()) {
    routed.push_back(world.store->vnodes().Find(r.vnode)->queries_routed);
  }
  EXPECT_EQ(routed, (std::vector<uint64_t>{101, 100, 100}));
  EXPECT_EQ(world.store->last_route().requested, 301u);
  EXPECT_EQ(world.store->last_route().routed, 301u);
  EXPECT_EQ(world.store->last_route().lost, 0u);
}

TEST(RoutingStoreTest, QueriesAgainstDeadPartitionCountAsLost) {
  RoutingWorld world(/*partitions=*/4, /*replicas=*/1);
  Partition* p =
      world.store->catalog().ring(world.ring)->partitions()[0].get();
  // Take every replica of partition 0 offline.
  for (const ReplicaInfo& r : std::vector<ReplicaInfo>(p->replicas())) {
    ASSERT_TRUE(world.cluster.FailServer(r.server).ok());
    world.store->HandleServerFailure(r.server);
  }
  ASSERT_EQ(p->replica_count(), 0u);

  world.store->BeginEpoch();
  world.store->RouteQueriesToPartition(p, 40);
  // Requested traffic is still accounted (the messages were sent)...
  EXPECT_EQ(world.store->comm_this_epoch().query_msgs, 40u);
  EXPECT_EQ(world.store->ReportRing(world.ring).queries_this_epoch, 40u);
  // ...but routed nowhere.
  EXPECT_EQ(world.store->last_route().lost, 40u);
  EXPECT_EQ(world.store->last_route().routed, 0u);
  EXPECT_EQ(world.store->last_route().requested, 40u);
}

TEST(RoutingStoreTest, BatchAndSerialRoutingAgreeBitForBit) {
  // Two bit-identical worlds; one routes per partition on the caller's
  // thread, the other routes the same workload as one QueryBatch through
  // the sharded RouteStage. Every vnode counter must match.
  RoutingWorld serial(/*partitions=*/8, /*replicas=*/2,
                      /*hotspot_mix=*/true);
  RoutingWorld batched(/*partitions=*/8, /*replicas=*/2,
                       /*hotspot_mix=*/true);

  uint64_t i = 0;
  for (const auto& p :
       serial.store->catalog().ring(serial.ring)->partitions()) {
    serial.store->RouteQueriesToPartition(p.get(), 100 + 13 * i++);
  }

  QueryBatch batch;
  i = 0;
  for (const auto& p :
       batched.store->catalog().ring(batched.ring)->partitions()) {
    batch.Add(p->id(), 100 + 13 * i++);
  }
  const RouteResult result = batched.store->RouteQueryBatch(batch);

  EXPECT_EQ(serial.Counters(), batched.Counters());
  EXPECT_EQ(result.requested, serial.store->last_route().requested);
  EXPECT_EQ(result.routed, serial.store->last_route().routed);
  EXPECT_EQ(result.lost, serial.store->last_route().lost);
  EXPECT_EQ(serial.store->comm_this_epoch().query_msgs,
            batched.store->comm_this_epoch().query_msgs);
}

}  // namespace
}  // namespace skute
