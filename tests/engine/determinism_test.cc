// The parallel decision plane's determinism contract: a store driven with
// EpochOptions::threads = 1 and one driven with threads = 4 must produce
// bit-for-bit identical results — same placements, same executor
// counters, same per-ring reports (including the floating-point rent
// sums) — because the shard layout and all merge orders are functions of
// the partition count only, never of the thread count.

#include <vector>

#include <gtest/gtest.h>

#include "skute/common/hash.h"
#include "skute/core/policy.h"
#include "skute/core/store.h"
#include "skute/topology/topology.h"

namespace skute {
namespace {

/// Everything observable we compare across runs.
struct RunResult {
  Epoch epoch = 0;
  uint64_t placement_version = 0;
  ExecutorStats total_stats;  // accumulated over all epochs
  ExecutorStats last_stats;
  std::vector<RingReport> reports;
  std::vector<uint32_t> vnodes_per_server;
  CommStats comm_total;
  uint64_t lost_partitions = 0;
  uint64_t insert_failures = 0;
  DecisionPlaneStats decision;
};

void ExpectEqualStats(const ExecutorStats& a, const ExecutorStats& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.suicides, b.suicides);
  EXPECT_EQ(a.blocked_bandwidth, b.blocked_bandwidth);
  EXPECT_EQ(a.blocked_storage, b.blocked_storage);
  EXPECT_EQ(a.aborted_stale, b.aborted_stale);
  EXPECT_EQ(a.bytes_replicated, b.bytes_replicated);
  EXPECT_EQ(a.bytes_migrated, b.bytes_migrated);
}

// Each shard tallies its decision counters in plain integers and adds
// them to the totals once; a lost or double-counted shard tally shows up
// as a thread-count difference.
void ExpectEqualDecisionStats(const DecisionPlaneStats& a,
                              const DecisionPlaneStats& b) {
  EXPECT_EQ(a.epochs_prepared, b.epochs_prepared);
  EXPECT_EQ(a.select_calls, b.select_calls);
  EXPECT_EQ(a.candidates_scored, b.candidates_scored);
  EXPECT_EQ(a.full_scan_selects, b.full_scan_selects);
  EXPECT_EQ(a.partitions_clean, b.partitions_clean);
  EXPECT_EQ(a.partitions_dirty, b.partitions_dirty);
  EXPECT_EQ(a.avail_cache_hits, b.avail_cache_hits);
  EXPECT_EQ(a.avail_cache_misses, b.avail_cache_misses);
}

void ExpectEqualReports(const RingReport& a, const RingReport& b) {
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.vnodes, b.vnodes);
  EXPECT_EQ(a.below_threshold, b.below_threshold);
  EXPECT_EQ(a.lost, b.lost);
  // Exact double equality is the point: the sharded rent merge must
  // reproduce the same floating-point sum for every thread count.
  EXPECT_EQ(a.min_availability, b.min_availability);
  EXPECT_EQ(a.mean_availability, b.mean_availability);
  EXPECT_EQ(a.logical_bytes, b.logical_bytes);
  EXPECT_EQ(a.replicated_bytes, b.replicated_bytes);
  EXPECT_EQ(a.queries_this_epoch, b.queries_this_epoch);
  EXPECT_EQ(a.rent_paid_this_epoch, b.rent_paid_this_epoch);
  EXPECT_EQ(a.rent_paid_total, b.rent_paid_total);
}

/// Runs a fixed 16-server scenario — bulk load, query traffic, a server
/// failure, growth — with the given thread count. Shard sizing is forced
/// low so the plan genuinely fans out (48 partitions / 8 per shard,
/// capped at 4 => 4 multi-partition shards).
RunResult RunScenario(int threads) {
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
  res.storage_capacity = 256 * kMiB;
  res.replication_bw_per_epoch = 64 * kMB;
  res.migration_bw_per_epoch = 32 * kMB;
  res.query_capacity_per_epoch = 2000;
  for (const Location& loc : *grid) {
    cluster.AddServer(loc, res, ServerEconomics{});
  }

  SkuteOptions options;
  options.seed = 1234;
  options.track_real_data = false;
  options.epoch.threads = threads;
  options.epoch.min_partitions_per_shard = 8;
  options.epoch.max_shards = 4;

  SkuteStore store(&cluster, options);
  const AppId app = store.CreateApplication("determinism");
  const auto gold =
      store.AttachRing(app, SlaLevel::ForReplicas(3, 1.0), 24);
  const auto silver =
      store.AttachRing(app, SlaLevel::ForReplicas(2, 1.0), 24);
  EXPECT_TRUE(gold.ok());
  EXPECT_TRUE(silver.ok());

  RunResult result;
  SplitMix64 keys(7);
  for (Epoch e = 0; e < 20; ++e) {
    store.BeginEpoch();

    // Deterministic synthetic writes, skewed across the hash space.
    for (int i = 0; i < 40; ++i) {
      const uint64_t h = keys.Next();
      (void)store.PutSynthetic(*gold, h, 64 * kKB);
      if (i % 2 == 0) (void)store.PutSynthetic(*silver, h, 32 * kKB);
    }
    // Deterministic query traffic, hot on a few partitions.
    for (int i = 0; i < 16; ++i) {
      const uint64_t h = Hash64("hot-" + std::to_string(i % 4));
      store.RouteQueries(*gold, h, 120);
      store.RouteQueries(*silver, Hash64("warm-" + std::to_string(i)), 30);
    }

    // Membership churn mid-run: repair must re-propose under both thread
    // counts identically.
    if (e == 10) {
      EXPECT_TRUE(cluster.FailServer(3).ok());
      store.HandleServerFailure(3);
    }

    result.last_stats = store.EndEpoch();
    result.total_stats.Accumulate(result.last_stats);
  }

  result.epoch = store.epoch();
  result.placement_version = store.placement_version();
  result.reports.push_back(store.ReportRing(*gold));
  result.reports.push_back(store.ReportRing(*silver));
  result.vnodes_per_server = store.VNodesPerServer();
  result.comm_total = store.comm_total();
  result.lost_partitions = store.lost_partitions();
  result.insert_failures = store.insert_failures();
  const auto* economic =
      dynamic_cast<const EconomicPolicy*>(&store.placement_policy());
  EXPECT_NE(economic, nullptr);
  if (economic != nullptr) result.decision = economic->decision_stats();
  return result;
}

TEST(EpochDeterminismTest, ThreadsOneAndFourProduceIdenticalRuns) {
  const RunResult one = RunScenario(1);
  const RunResult four = RunScenario(4);

  EXPECT_EQ(one.epoch, four.epoch);
  EXPECT_EQ(one.placement_version, four.placement_version);
  ExpectEqualStats(one.total_stats, four.total_stats);
  ExpectEqualStats(one.last_stats, four.last_stats);
  ASSERT_EQ(one.reports.size(), four.reports.size());
  for (size_t i = 0; i < one.reports.size(); ++i) {
    ExpectEqualReports(one.reports[i], four.reports[i]);
  }
  EXPECT_EQ(one.vnodes_per_server, four.vnodes_per_server);
  EXPECT_EQ(one.comm_total.TotalMsgs(), four.comm_total.TotalMsgs());
  EXPECT_EQ(one.comm_total.transfer_bytes, four.comm_total.transfer_bytes);
  EXPECT_EQ(one.comm_total.consistency_bytes,
            four.comm_total.consistency_bytes);
  EXPECT_EQ(one.lost_partitions, four.lost_partitions);
  EXPECT_EQ(one.insert_failures, four.insert_failures);
  ExpectEqualDecisionStats(one.decision, four.decision);

  // The scenario must have actually exercised the decision plane, or the
  // comparison proves nothing.
  EXPECT_GT(one.total_stats.applied(), 0u);
  EXPECT_GT(one.placement_version, 0u);
  EXPECT_EQ(one.decision.epochs_prepared, 20u);
  EXPECT_GT(one.decision.select_calls, 0u);
  EXPECT_GT(one.decision.candidates_scored, 0u);
  EXPECT_GT(one.decision.partitions_clean, 0u);
  EXPECT_GT(one.decision.partitions_dirty, 0u);
  EXPECT_GT(one.decision.avail_cache_hits, 0u);
  // The economic pass classifies each of the 48 partitions at most once
  // per epoch.
  EXPECT_LE(one.decision.partitions_clean + one.decision.partitions_dirty,
            20u * 48u);
}

TEST(EpochDeterminismTest, RepeatedParallelRunsAreIdentical) {
  const RunResult a = RunScenario(4);
  const RunResult b = RunScenario(4);
  EXPECT_EQ(a.placement_version, b.placement_version);
  ExpectEqualStats(a.total_stats, b.total_stats);
  ExpectEqualDecisionStats(a.decision, b.decision);
  EXPECT_EQ(a.vnodes_per_server, b.vnodes_per_server);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    ExpectEqualReports(a.reports[i], b.reports[i]);
  }
}

}  // namespace
}  // namespace skute
