#include "skute/engine/epoch_pipeline.h"

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "skute/core/store.h"
#include "skute/engine/shard.h"
#include "skute/engine/stages.h"
#include "skute/engine/worker_pool.h"
#include "skute/topology/topology.h"

namespace skute {
namespace {

// --- Stage ordering ---------------------------------------------------------

TEST(EpochPipelineTest, DefaultStageOrder) {
  EpochPipeline pipeline((EpochOptions()));

  const std::vector<const char*> begin =
      pipeline.StageNames(EpochPhase::kBegin);
  ASSERT_EQ(begin.size(), 1u);
  EXPECT_STREQ(begin[0], "publish_prices");

  const std::vector<const char*> route =
      pipeline.StageNames(EpochPhase::kRoute);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_STREQ(route[0], "route_queries");

  const std::vector<const char*> end = pipeline.StageNames(EpochPhase::kEnd);
  ASSERT_EQ(end.size(), 5u);
  EXPECT_STREQ(end[0], "record_balances");
  EXPECT_STREQ(end[1], "propose_actions");
  EXPECT_STREQ(end[2], "execute");
  EXPECT_STREQ(end[3], "durability");
  EXPECT_STREQ(end[4], "accounting");
}

/// A stage that appends its name to a shared trace when run.
class TracingStage : public EpochStage {
 public:
  TracingStage(const char* name, EpochPhase phase,
               std::vector<std::string>* trace)
      : name_(name), phase_(phase), trace_(trace) {}

  const char* name() const override { return name_; }
  EpochPhase phase() const override { return phase_; }
  void Run(EpochContext&) override { trace_->push_back(name_); }

 private:
  const char* name_;
  EpochPhase phase_;
  std::vector<std::string>* trace_;
};

TEST(EpochPipelineTest, AddedStagesRunAfterDefaultsInOrder) {
  EpochPipeline pipeline((EpochOptions()));
  std::vector<std::string> trace;
  pipeline.AddStage(std::make_unique<TracingStage>(
      "custom_a", EpochPhase::kEnd, &trace));
  pipeline.AddStage(std::make_unique<TracingStage>(
      "custom_b", EpochPhase::kEnd, &trace));

  const std::vector<const char*> end = pipeline.StageNames(EpochPhase::kEnd);
  ASSERT_EQ(end.size(), 7u);
  EXPECT_STREQ(end[5], "custom_a");
  EXPECT_STREQ(end[6], "custom_b");
}

// --- The store delegates to the pipeline ------------------------------------
// (Phase filtering is asserted here too: after BeginEpoch only the kBegin
// tracing stage has run.)

TEST(EpochPipelineTest, StoreEpochLifecycleRunsThroughPipeline) {
  GridSpec spec;
  spec.continents = 1;
  spec.countries_per_continent = 1;
  spec.datacenters_per_country = 1;
  spec.rooms_per_datacenter = 1;
  spec.racks_per_room = 2;
  spec.servers_per_rack = 2;
  auto grid = BuildGrid(spec);
  ASSERT_TRUE(grid.ok());

  Cluster cluster{PricingParams{}};
  for (const Location& loc : *grid) {
    cluster.AddServer(loc, ServerResources{}, ServerEconomics{});
  }
  SkuteStore store(&cluster, SkuteOptions{});
  const AppId app = store.CreateApplication("t");
  ASSERT_TRUE(store.AttachRing(app, SlaLevel::ForReplicas(2, 1.0), 4).ok());

  std::vector<std::string> trace;
  store.epoch_pipeline().AddStage(std::make_unique<TracingStage>(
      "after_begin", EpochPhase::kBegin, &trace));
  store.epoch_pipeline().AddStage(std::make_unique<TracingStage>(
      "after_end", EpochPhase::kEnd, &trace));

  const Epoch before = store.epoch();
  store.BeginEpoch();
  EXPECT_EQ(trace, (std::vector<std::string>{"after_begin"}));
  store.EndEpoch();
  EXPECT_EQ(trace,
            (std::vector<std::string>{"after_begin", "after_end"}));
  // AccountingStage owns the epoch increment.
  EXPECT_EQ(store.epoch(), before + 1);
  // PublishPricesStage drove the board.
  EXPECT_EQ(cluster.board().updates_published(), 1u);
}

TEST(EpochPipelineTest, StageTimersRecordEveryRun) {
  GridSpec spec;
  spec.continents = 1;
  spec.countries_per_continent = 1;
  spec.datacenters_per_country = 1;
  spec.rooms_per_datacenter = 1;
  spec.racks_per_room = 2;
  spec.servers_per_rack = 2;
  auto grid = BuildGrid(spec);
  ASSERT_TRUE(grid.ok());
  Cluster cluster{PricingParams{}};
  for (const Location& loc : *grid) {
    cluster.AddServer(loc, ServerResources{}, ServerEconomics{});
  }
  SkuteStore store(&cluster, SkuteOptions{});
  const AppId app = store.CreateApplication("t");
  ASSERT_TRUE(store.AttachRing(app, SlaLevel::ForReplicas(2, 1.0), 4).ok());

  for (int i = 0; i < 3; ++i) {
    store.BeginEpoch();
    QueryBatch batch;
    batch.Add(store.catalog().ring(0)->partitions()[0]->id(), 10);
    (void)store.RouteQueryBatch(batch);
    store.EndEpoch();
  }

  const std::vector<StageTiming>& timings =
      store.epoch_pipeline().stage_timings();
  ASSERT_EQ(timings.size(), 7u);
  for (const StageTiming& t : timings) {
    EXPECT_EQ(t.runs, 3u) << t.name;
    EXPECT_GE(t.total_ms, t.last_ms) << t.name;
    EXPECT_GE(t.last_ms, 0.0) << t.name;
  }
  EXPECT_STREQ(timings[0].name, "publish_prices");
  EXPECT_EQ(timings[0].phase, EpochPhase::kBegin);
  EXPECT_STREQ(timings[1].name, "route_queries");
  EXPECT_EQ(timings[1].phase, EpochPhase::kRoute);
  EXPECT_STREQ(timings[4].name, "execute");
}

// --- ShardPlanCache ----------------------------------------------------------

TEST(ShardPlanCacheTest, ReusesUntilPlacementVersionMoves) {
  RingCatalog catalog;
  ASSERT_TRUE(catalog.CreateRing(0, 32).ok());
  EpochOptions opts;
  opts.min_partitions_per_shard = 8;

  ShardPlanCache cache;
  const ShardPlan& first = cache.Get(catalog, opts, /*rng_salt=*/1,
                                     /*placement_version=*/7);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.reuses(), 0u);

  // Same placement: the cached plan object is handed back (identity).
  const ShardPlan& second = cache.Get(catalog, opts, /*rng_salt=*/2, 7);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.reuses(), 1u);

  // The new epoch's salt was applied on reuse: shard RNG streams moved.
  Rng salt1 = ShardPlan::Build(catalog, opts, 2).ShardRng(0);
  EXPECT_EQ(second.ShardRng(0).NextUint64(), salt1.NextUint64());

  // Placement changed (a split/migration/failure): rebuild.
  const ShardPlan& third = cache.Get(catalog, opts, 3, 8);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(third.total_partitions(), 32u);
}

TEST(ShardPlanCacheTest, CachedPlanMatchesFreshBuildAfterCatalogGrowth) {
  RingCatalog catalog;
  ASSERT_TRUE(catalog.CreateRing(0, 8).ok());
  EpochOptions opts;
  opts.min_partitions_per_shard = 4;

  ShardPlanCache cache;
  (void)cache.Get(catalog, opts, 1, /*placement_version=*/1);

  // Growth always bumps placement_version (AttachRing/splits do), so the
  // next Get rebuilds and covers the new partitions.
  ASSERT_TRUE(catalog.CreateRing(0, 8).ok());
  const ShardPlan& rebuilt = cache.Get(catalog, opts, 1, 2);
  EXPECT_EQ(rebuilt.total_partitions(), 16u);

  const ShardPlan fresh = ShardPlan::Build(catalog, opts, 1);
  ASSERT_EQ(rebuilt.shard_count(), fresh.shard_count());
  for (size_t s = 0; s < fresh.shard_count(); ++s) {
    ASSERT_EQ(rebuilt.shard(s).size(), fresh.shard(s).size());
    for (size_t i = 0; i < fresh.shard(s).size(); ++i) {
      EXPECT_EQ(rebuilt.shard(s)[i], fresh.shard(s)[i]);
    }
  }
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlanTest, ShardCountFormula) {
  EpochOptions opts;
  opts.min_partitions_per_shard = 8;
  opts.max_shards = 4;
  EXPECT_EQ(ShardPlan::ShardCountFor(0, opts), 1u);
  EXPECT_EQ(ShardPlan::ShardCountFor(7, opts), 1u);
  EXPECT_EQ(ShardPlan::ShardCountFor(8, opts), 1u);
  EXPECT_EQ(ShardPlan::ShardCountFor(16, opts), 2u);
  EXPECT_EQ(ShardPlan::ShardCountFor(31, opts), 3u);
  EXPECT_EQ(ShardPlan::ShardCountFor(1000, opts), 4u);  // capped
}

TEST(ShardPlanTest, CoversEveryPartitionOnceInCatalogOrder) {
  RingCatalog catalog;
  ASSERT_TRUE(catalog.CreateRing(0, 10).ok());
  ASSERT_TRUE(catalog.CreateRing(0, 13).ok());

  EpochOptions opts;
  opts.min_partitions_per_shard = 4;
  opts.max_shards = 4;
  const ShardPlan plan = ShardPlan::Build(catalog, opts, /*rng_salt=*/7);

  EXPECT_EQ(plan.shard_count(), 4u);
  EXPECT_EQ(plan.total_partitions(), 23u);

  std::vector<PartitionId> flattened;
  for (size_t s = 0; s < plan.shard_count(); ++s) {
    for (const Partition* p : plan.shard(s)) {
      flattened.push_back(p->id());
    }
  }
  std::vector<PartitionId> expected;
  catalog.ForEachPartition(
      [&](const Partition* p) { expected.push_back(p->id()); });
  EXPECT_EQ(flattened, expected);

  const std::set<PartitionId> unique(flattened.begin(), flattened.end());
  EXPECT_EQ(unique.size(), flattened.size());
}

TEST(ShardPlanTest, LayoutIndependentOfThreads) {
  RingCatalog catalog;
  ASSERT_TRUE(catalog.CreateRing(0, 32).ok());

  EpochOptions one;
  one.threads = 1;
  one.min_partitions_per_shard = 8;
  EpochOptions many = one;
  many.threads = 8;

  const ShardPlan a = ShardPlan::Build(catalog, one, 42);
  const ShardPlan b = ShardPlan::Build(catalog, many, 42);
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (size_t s = 0; s < a.shard_count(); ++s) {
    ASSERT_EQ(a.shard(s).size(), b.shard(s).size());
    for (size_t i = 0; i < a.shard(s).size(); ++i) {
      EXPECT_EQ(a.shard(s)[i], b.shard(s)[i]);
    }
  }
}

TEST(ShardPlanTest, ShardRngStreamsAreDeterministicAndDistinct) {
  RingCatalog catalog;
  ASSERT_TRUE(catalog.CreateRing(0, 32).ok());
  EpochOptions opts;
  opts.min_partitions_per_shard = 8;
  const ShardPlan plan = ShardPlan::Build(catalog, opts, 99);
  ASSERT_GE(plan.shard_count(), 2u);

  Rng a0 = plan.ShardRng(0);
  Rng a0_again = plan.ShardRng(0);
  Rng a1 = plan.ShardRng(1);
  const uint64_t first = a0.NextUint64();
  EXPECT_EQ(first, a0_again.NextUint64());  // same shard: same stream
  EXPECT_NE(first, a1.NextUint64());        // different shard: different
}

// --- WorkerPool --------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);

  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, ReusableAcrossCalls) {
  WorkerPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(17, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 17u * 18u / 2u);
  }
}

TEST(WorkerPoolTest, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, ExceptionPropagatesAfterBarrierAndPoolSurvives) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](size_t i) {
                                  if (i == 50) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must stay usable: no wedged workers, no dangling job.
  std::atomic<size_t> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(WorkerPoolTest, ZeroCountIsANoop) {
  WorkerPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace skute
