#include "skute/sim/metrics.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "skute/topology/topology.h"
#include "testutil/temp_dir.h"

namespace skute {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridSpec spec;
    spec.continents = 2;
    spec.countries_per_continent = 1;
    spec.datacenters_per_country = 1;
    spec.rooms_per_datacenter = 1;
    spec.racks_per_room = 2;
    spec.servers_per_rack = 2;
    auto grid = BuildGrid(spec);
    ASSERT_TRUE(grid.ok());
    for (size_t i = 0; i < grid->size(); ++i) {
      ServerEconomics eco;
      eco.monthly_cost = i < 4 ? 100.0 : 125.0;  // half cheap, half not
      cluster_.AddServer((*grid)[i], ServerResources{}, eco);
    }
    SkuteOptions options;
    options.track_real_data = false;
    store_ = std::make_unique<SkuteStore>(&cluster_, options);
    const AppId app = store_->CreateApplication("m");
    ring_ = store_->AttachRing(app, SlaLevel::ForReplicas(2, 1.0), 4)
                .value();
  }

  Cluster cluster_{PricingParams{}};
  std::unique_ptr<SkuteStore> store_;
  RingId ring_ = 0;
};

TEST_F(MetricsTest, SnapshotCapturesBasics) {
  MetricsCollector metrics(/*cheap_cost_threshold=*/110.0);
  store_->BeginEpoch();
  Partition* p = store_->catalog().ring(ring_)->partitions()[0].get();
  store_->RouteQueriesToPartition(p, 40);
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, /*epoch=*/0,
                   /*queries_routed=*/40, /*insert_attempted=*/5,
                   /*insert_failed=*/1);
  ASSERT_EQ(metrics.series().size(), 1u);
  const EpochSnapshot& snap = metrics.last();
  EXPECT_EQ(snap.epoch, 0);
  EXPECT_EQ(snap.online_servers, 8u);
  EXPECT_EQ(snap.queries_routed, 40u);
  EXPECT_EQ(snap.insert_attempted, 5u);
  EXPECT_EQ(snap.insert_failed, 1u);
  EXPECT_EQ(snap.total_vnodes, store_->catalog().total_vnodes());
  ASSERT_EQ(snap.ring_vnodes.size(), 1u);
  EXPECT_GT(snap.comm.query_msgs, 0u);
  EXPECT_GT(snap.ring_latency_ms[0], 0.0);  // uniform-reference RTT
  // All 40 queries found a live replica.
  EXPECT_EQ(snap.queries_lost, 0u);
}

TEST_F(MetricsTest, LostQueriesAndRouteTimeCaptured) {
  MetricsCollector metrics(110.0);
  store_->BeginEpoch();
  Partition* p = store_->catalog().ring(ring_)->partitions()[0].get();
  // Kill the partition's only replica, then route against it.
  for (const ReplicaInfo& r : std::vector<ReplicaInfo>(p->replicas())) {
    ASSERT_TRUE(cluster_.FailServer(r.server).ok());
    store_->HandleServerFailure(r.server);
  }
  store_->BeginEpoch();
  QueryBatch batch;
  batch.Add(p->id(), 25);
  (void)store_->RouteQueryBatch(batch);
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, 0, 25, 0, 0);
  EXPECT_EQ(metrics.last().queries_lost, 25u);
  EXPECT_GE(metrics.last().route_ms, 0.0);
}

TEST_F(MetricsTest, CostClassSplitUsesThreshold) {
  MetricsCollector metrics(110.0);
  store_->BeginEpoch();
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, 0, 0, 0, 0);
  const EpochSnapshot& snap = metrics.last();
  // 4 cheap + 4 expensive servers; vnode means must account every vnode.
  const double total_estimate =
      4 * snap.vnodes_mean_cheap + 4 * snap.vnodes_mean_expensive;
  EXPECT_NEAR(total_estimate, static_cast<double>(snap.total_vnodes),
              1e-9);
}

TEST_F(MetricsTest, OfflineServersExcludedFromPlacementStats) {
  MetricsCollector metrics(110.0);
  ASSERT_TRUE(cluster_.FailServer(7).ok());
  store_->HandleServerFailure(7);
  store_->BeginEpoch();
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, 0, 0, 0, 0);
  EXPECT_EQ(metrics.last().online_servers, 7u);
}

TEST_F(MetricsTest, CsvRowPerSnapshotAndStableColumns) {
  MetricsCollector metrics(110.0);
  for (int e = 0; e < 3; ++e) {
    store_->BeginEpoch();
    store_->EndEpoch();
    metrics.Snapshot(store_.get(), cluster_, e, 0, 0, 0);
  }
  std::ostringstream out;
  metrics.WriteCsv(&out);
  const std::string csv = out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3
  EXPECT_NE(csv.find("msgs_total"), std::string::npos);
  EXPECT_NE(csv.find("ring0_latency_ms"), std::string::npos);
  EXPECT_NE(csv.find("queries_lost"), std::string::npos);
  EXPECT_NE(csv.find("route_ms"), std::string::npos);
  EXPECT_NE(csv.find("stage_route_queries_ms"), std::string::npos);
  // Executor outcome columns: scenarios shape-check contention with them.
  EXPECT_NE(csv.find("exec_blocked_bandwidth"), std::string::npos);
  EXPECT_NE(csv.find("exec_blocked_storage"), std::string::npos);
  EXPECT_NE(csv.find("exec_aborted_stale"), std::string::npos);
  // Durability-plane columns: transfer byte split plus the I/O offload
  // counters the async durability plane reports per epoch.
  EXPECT_NE(csv.find("snapshot_bytes"), std::string::npos);
  EXPECT_NE(csv.find("delta_bytes"), std::string::npos);
  EXPECT_NE(csv.find("io_group_commits"), std::string::npos);
  EXPECT_NE(csv.find("io_coalesced_fsyncs"), std::string::npos);
  EXPECT_NE(csv.find("io_compaction_bytes"), std::string::npos);
  EXPECT_NE(csv.find("io_delta_bytes"), std::string::npos);
  // Every row has the same number of commas as the header.
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  const auto commas = std::count(line.begin(), line.end(), ',');
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), commas);
  }
}

TEST_F(MetricsTest, EmptyCollectorWritesNothing) {
  MetricsCollector metrics(110.0);
  std::ostringstream out;
  metrics.WriteCsv(&out);
  EXPECT_TRUE(out.str().empty());
  EXPECT_TRUE(metrics.empty());
}

TEST_F(MetricsTest, SeriesAtGuardsTheBounds) {
  MetricsCollector metrics(110.0);
  for (int e = 0; e < 3; ++e) {
    store_->BeginEpoch();
    store_->EndEpoch();
    metrics.Snapshot(store_.get(), cluster_, e, 0, 0, 0);
  }
  ASSERT_NE(metrics.SeriesAt(0), nullptr);
  ASSERT_NE(metrics.SeriesAt(2), nullptr);
  EXPECT_EQ(metrics.SeriesAt(2)->epoch, 2);
  EXPECT_EQ(metrics.SeriesAt(3), nullptr);   // one past the end
  EXPECT_EQ(metrics.SeriesAt(-1), nullptr);  // negative epoch
  EXPECT_EQ(metrics.SeriesAt(1000000), nullptr);
}

TEST_F(MetricsTest, WriteCsvToFileMatchesStreamOutput) {
  testutil::ScopedTempDir tmp("metrics_csv");
  MetricsCollector metrics(110.0);
  for (int e = 0; e < 3; ++e) {
    store_->BeginEpoch();
    store_->EndEpoch();
    metrics.Snapshot(store_.get(), cluster_, e, 0, 0, 0);
  }
  const std::string path = tmp.Sub("series.csv");
  ASSERT_TRUE(metrics.WriteCsv(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream from_file;
  from_file << in.rdbuf();
  std::ostringstream from_stream;
  metrics.WriteCsv(&from_stream);
  EXPECT_FALSE(from_file.str().empty());
  EXPECT_EQ(from_file.str(), from_stream.str());
}

TEST_F(MetricsTest, WriteCsvToFileOverwritesPreviousContent) {
  testutil::ScopedTempDir tmp("metrics_csv");
  const std::string path = tmp.Sub("series.csv");
  {
    std::ofstream seed_file(path);
    seed_file << "stale content that must disappear\n";
  }
  MetricsCollector metrics(110.0);
  store_->BeginEpoch();
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, 0, 0, 0, 0);
  ASSERT_TRUE(metrics.WriteCsv(path).ok());
  std::ifstream in(path);
  std::stringstream from_file;
  from_file << in.rdbuf();
  // ("stale" alone would false-positive on the exec_aborted_stale column.)
  EXPECT_EQ(from_file.str().find("stale content"), std::string::npos);
  EXPECT_NE(from_file.str().find("epoch"), std::string::npos);
}

TEST_F(MetricsTest, WriteCsvToUnwritablePathErrors) {
  MetricsCollector metrics(110.0);
  store_->BeginEpoch();
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, 0, 0, 0, 0);
  const Status missing_dir =
      metrics.WriteCsv("/nonexistent_dir_skute/series.csv");
  EXPECT_FALSE(missing_dir.ok());
  EXPECT_TRUE(missing_dir.IsUnavailable());
  const Status empty_path = metrics.WriteCsv(std::string());
  EXPECT_FALSE(empty_path.ok());
  EXPECT_TRUE(empty_path.IsInvalidArgument());
}

TEST_F(MetricsTest, ClearDropsSeries) {
  MetricsCollector metrics(110.0);
  store_->BeginEpoch();
  store_->EndEpoch();
  metrics.Snapshot(store_.get(), cluster_, 0, 0, 0, 0);
  metrics.Clear();
  EXPECT_TRUE(metrics.empty());
}

}  // namespace
}  // namespace skute
