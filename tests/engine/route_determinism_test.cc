// The parallel query-routing plane's determinism contract: a store whose
// epoch batches are routed with EpochOptions::threads = 1 and one routed
// with threads = 4 must produce bit-for-bit identical routing state —
// per-vnode queries_routed/queries_served, per-partition stats, per-ring
// query totals, comm counters, and the requested/routed/lost totals —
// because the share computation fans out over shards whose accumulators
// are merged (and capacity-admitted) in shard order on one thread.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "skute/common/hash.h"
#include "skute/core/store.h"
#include "skute/topology/topology.h"
#include "skute/workload/geo.h"
#include "skute/workload/popularity.h"
#include "skute/workload/querygen.h"

namespace skute {
namespace {

struct RouteRunResult {
  std::vector<uint64_t> vnode_counters;  // (routed, served) catalog order
  std::vector<std::pair<PartitionId, uint64_t>> partition_queries;
  std::vector<std::vector<uint64_t>> served_per_ring_per_server;
  std::vector<RingReport> reports;
  CommStats comm_total;
  RouteResult last_route;
  uint64_t requested_total = 0;
};

/// Drives a 16-server, 2-ring store for several epochs of generated
/// query batches (plus direct RouteQueries calls mixed in), with a
/// mid-run failure, at the given thread count. `capacity` is the
/// per-server query capacity — small values force saturation so the
/// deterministic drop placement is exercised too.
RouteRunResult RunScenario(int threads, uint64_t capacity) {
  GridSpec spec;
  spec.continents = 2;
  spec.countries_per_continent = 2;
  spec.datacenters_per_country = 1;
  spec.rooms_per_datacenter = 1;
  spec.racks_per_room = 2;
  spec.servers_per_rack = 2;
  auto grid = BuildGrid(spec);
  EXPECT_TRUE(grid.ok());

  Cluster cluster{PricingParams{}};
  ServerResources res;
  res.query_capacity_per_epoch = capacity;
  for (const Location& loc : *grid) {
    cluster.AddServer(loc, res, ServerEconomics{});
  }

  SkuteOptions options;
  options.seed = 99;
  options.track_real_data = false;
  options.epoch.threads = threads;
  // Force a genuinely multi-shard plan: 48 partitions / 8 per shard,
  // capped at 4.
  options.epoch.min_partitions_per_shard = 8;
  options.epoch.max_shards = 4;

  SkuteStore store(&cluster, options);
  const AppId app = store.CreateApplication("route-determinism");
  const RingId gold =
      *store.AttachRing(app, SlaLevel::ForReplicas(3, 1.0), 24);
  const RingId silver =
      *store.AttachRing(app, SlaLevel::ForReplicas(2, 1.0), 24);
  (void)store.SetClientMix(
      gold, HotspotMix(spec, Location::Of(1, 0, 0, 0, 1, 1), 0.6));
  PopularityModel popularity(ParetoSpec::PaperPopularity(), 77);
  popularity.AssignWeights(store.catalog().ring(gold));
  popularity.AssignWeights(store.catalog().ring(silver));

  QueryGenerator gen(4242);
  RouteRunResult result;
  for (Epoch e = 0; e < 12; ++e) {
    store.BeginEpoch();
    // The epoch's batch through the sharded plane...
    result.requested_total += gen.GenerateEpoch(
        &store, {gold, silver}, {2.0 / 3.0, 1.0 / 3.0}, 6000.0);
    // ...plus direct serial routing riding the same epoch.
    for (int i = 0; i < 8; ++i) {
      store.RouteQueries(gold, Hash64("hot-" + std::to_string(i % 3)),
                         50);
    }
    if (e == 6) {
      EXPECT_TRUE(cluster.FailServer(5).ok());
      store.HandleServerFailure(5);
    }
    if (e + 1 < 12) store.EndEpoch();  // keep the last epoch's counters
  }

  store.catalog().ForEachPartition([&](const Partition* p) {
    for (const ReplicaInfo& r : p->replicas()) {
      const VirtualNode* v = store.vnodes().Find(r.vnode);
      result.vnode_counters.push_back(v == nullptr ? 0
                                                   : v->queries_routed);
      result.vnode_counters.push_back(v == nullptr ? 0
                                                   : v->queries_served);
    }
    result.partition_queries.emplace_back(
        p->id(), store.partition_stats().Get(p->id()).queries);
  });
  result.served_per_ring_per_server =
      store.QueriesServedPerRingPerServer();
  result.reports.push_back(store.ReportRing(gold));
  result.reports.push_back(store.ReportRing(silver));
  result.comm_total = store.comm_total();
  result.last_route = store.last_route();
  return result;
}

void ExpectIdenticalRouting(const RouteRunResult& a,
                            const RouteRunResult& b) {
  EXPECT_EQ(a.requested_total, b.requested_total);
  EXPECT_EQ(a.vnode_counters, b.vnode_counters);
  EXPECT_EQ(a.partition_queries, b.partition_queries);
  EXPECT_EQ(a.served_per_ring_per_server, b.served_per_ring_per_server);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].queries_this_epoch,
              b.reports[i].queries_this_epoch);
    EXPECT_EQ(a.reports[i].vnodes, b.reports[i].vnodes);
  }
  EXPECT_EQ(a.comm_total.query_msgs, b.comm_total.query_msgs);
  EXPECT_EQ(a.comm_total.TotalMsgs(), b.comm_total.TotalMsgs());
  EXPECT_EQ(a.last_route.requested, b.last_route.requested);
  EXPECT_EQ(a.last_route.routed, b.last_route.routed);
  EXPECT_EQ(a.last_route.lost, b.last_route.lost);
}

TEST(RouteDeterminismTest, ThreadsOneAndFourIdenticalAmpleCapacity) {
  const RouteRunResult one = RunScenario(1, /*capacity=*/1000000);
  const RouteRunResult four = RunScenario(4, /*capacity=*/1000000);
  ExpectIdenticalRouting(one, four);
  // The scenario must have routed real traffic or this proves nothing.
  EXPECT_GT(one.requested_total, 0u);
  EXPECT_GT(one.last_route.routed, 0u);
}

TEST(RouteDeterminismTest, ThreadsOneAndFourIdenticalUnderSaturation) {
  // Tight capacity: servers saturate, so which replicas' queries get
  // dropped depends entirely on the admission order — which must be the
  // shard-merge order, not the thread schedule.
  const RouteRunResult one = RunScenario(1, /*capacity=*/300);
  const RouteRunResult four = RunScenario(4, /*capacity=*/300);
  ExpectIdenticalRouting(one, four);

  uint64_t served = 0;
  for (const auto& ring : one.served_per_ring_per_server) {
    for (uint64_t s : ring) served += s;
  }
  // Saturation actually happened: fewer served than requested.
  EXPECT_LT(served, one.requested_total);
}

TEST(RouteDeterminismTest, RepeatedParallelRunsAreIdentical) {
  const RouteRunResult a = RunScenario(4, /*capacity=*/2000);
  const RouteRunResult b = RunScenario(4, /*capacity=*/2000);
  ExpectIdenticalRouting(a, b);
}

}  // namespace
}  // namespace skute
