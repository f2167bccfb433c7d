#ifndef SKUTE_ENGINE_EPOCH_CONTEXT_H_
#define SKUTE_ENGINE_EPOCH_CONTEXT_H_

#include <functional>
#include <optional>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/common/random.h"
#include "skute/core/comm_stats.h"
#include "skute/core/decision.h"
#include "skute/core/net_stats.h"
#include "skute/core/executor.h"
#include "skute/core/policy.h"
#include "skute/core/query_routing.h"
#include "skute/core/vnode.h"
#include "skute/engine/epoch_options.h"
#include "skute/engine/shard.h"
#include "skute/engine/worker_pool.h"
#include "skute/io/durability_options.h"
#include "skute/ring/catalog.h"
#include "skute/storage/replica_store.h"

#include <unordered_set>

namespace skute {

class IoPool;

/// \brief Everything one epoch's pipeline run reads and writes: a borrowed
/// view of the store's substrate plus the state staged between stages.
///
/// The context owns nothing. The store builds one per BeginEpoch/EndEpoch
/// call, pointing at its own members; stages communicate exclusively
/// through it (e.g. ProposeActionsStage fills `actions`, ExecuteStage
/// consumes them), which is what makes the stage list reorderable and
/// testable in isolation.
class EpochContext {
 public:
  // --- Substrate (borrowed from the store) --------------------------------
  Cluster* cluster = nullptr;
  RingCatalog* catalog = nullptr;
  VNodeRegistry* vnodes = nullptr;
  PlacementPolicy* policy = nullptr;
  ActionExecutor* executor = nullptr;
  /// The store's sequential RNG (executor shuffle); per-shard streams come
  /// from Shards().ShardRng instead.
  Rng* rng = nullptr;
  const DecisionParams* decision = nullptr;
  const EpochOptions* options = nullptr;
  /// Per-ring policies; set for the end phase, nullptr during begin.
  const std::vector<RingPolicy>* policies = nullptr;
  /// Worker pool for sharded stages; nullptr = run shards inline.
  WorkerPool* pool = nullptr;
  /// Cross-epoch shard-plan cache (owned by the pipeline); nullptr makes
  /// Shards() build a context-local plan (tests that run stages alone).
  ShardPlanCache* plan_cache = nullptr;

  // --- Per-epoch mutable state (borrowed from the store) ------------------
  Epoch* epoch = nullptr;
  uint64_t seed = 0;  // store seed; salts the per-shard RNG streams
  PartitionStatsTable* stats = nullptr;
  std::vector<uint64_t>* ring_queries_epoch = nullptr;
  std::vector<double>* ring_spend_epoch = nullptr;
  std::vector<double>* ring_spend_total = nullptr;
  CommStats* comm_epoch = nullptr;
  CommStats* comm_total = nullptr;
  /// Service-plane counters (skute/net); rolled into net_total and
  /// cleared by PublishPricesStage. Always non-null when built by the
  /// store — the counters just stay zero with no server attached.
  NetStats* net_epoch = nullptr;
  NetStats* net_total = nullptr;
  ExecutorStats* last_stats = nullptr;
  /// The store's per-epoch routing totals (cleared by PublishPricesStage,
  /// accumulated by the store after each RouteStage run).
  RouteResult* last_route = nullptr;
  uint64_t* placement_version = nullptr;

  // --- Durability plane (borrowed from the store) -------------------------
  /// Per-server replica data; nullptr when real data is off (the
  /// durability stage then has nothing to flush, sync, or checkpoint).
  ReplicaDataMap* replica_data = nullptr;
  /// I/O offload pool; nullptr when durability.io_threads == 0.
  IoPool* io_pool = nullptr;
  const DurabilityOptions* durability = nullptr;
  /// Partitions whose primary took log-shipped writes this epoch; the
  /// durability stage syncs secondaries from them and clears the set.
  std::unordered_set<PartitionId>* dirty_partitions = nullptr;

  // --- Staged data (owned by the context, passed between stages) ----------
  /// Proposal stage output, execution stage input.
  std::vector<Action> actions;

  /// Per-partition balance-streak flags (kStreak* bits, indexed by
  /// PartitionId): filled by RecordBalancesStage — which already visits
  /// every vnode — and consumed by ProposeActionsStage's prepare step so
  /// the decision engine's dirty check skips the registry lookups.
  /// Empty when the proposal cache is disabled.
  std::vector<uint8_t> streak_flags;

  /// RouteStage input: the query workload to route (borrowed from the
  /// caller of SkuteStore::RouteQueryBatch); nullptr outside kRoute runs.
  const QueryBatch* query_batch = nullptr;
  /// RouteStage output: this batch's routing outcome.
  RouteResult route_result;

  /// The epoch's shard plan, resolved on first use (RecordBalancesStage
  /// and ProposeActionsStage share one snapshot; partitions are never
  /// created mid-pipeline, so the snapshot stays valid through
  /// execution). Served from the pipeline's ShardPlanCache when wired —
  /// rebuilt only when placement_version moved since the last epoch.
  const ShardPlan& Shards();

  /// Runs fn(shard, shard_rng) for every shard of Shards(), on the worker
  /// pool when present. Shard-to-thread assignment is nondeterministic;
  /// fn must only write shard-local state, merged by the caller in shard
  /// order. `trace_label` (a string literal) names each shard's span when
  /// tracing is enabled; nullptr records no spans.
  void RunSharded(const std::function<void(size_t, Rng*)>& fn,
                  const char* trace_label = nullptr);

  /// Runs fn(i) for every i in [0, count) on the worker pool when present
  /// (inline otherwise). The generic index fan-out for stages whose work
  /// units are not partition shards — the ExecuteStage's conflict groups.
  /// Index-to-thread assignment is nondeterministic; fn must only write
  /// index-local state, merged by the caller in index order.
  /// `trace_label` as in RunSharded.
  void RunIndexed(size_t count, const std::function<void(size_t)>& fn,
                  const char* trace_label = nullptr);

 private:
  const ShardPlan* resolved_plan_ = nullptr;
  std::optional<ShardPlan> shard_plan_;  // fallback without a cache
};

}  // namespace skute

#endif  // SKUTE_ENGINE_EPOCH_CONTEXT_H_
