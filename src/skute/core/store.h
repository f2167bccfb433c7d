#ifndef SKUTE_CORE_STORE_H_
#define SKUTE_CORE_STORE_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "skute/chaos/fault_state.h"
#include "skute/cluster/cluster.h"
#include "skute/common/random.h"
#include "skute/common/result.h"
#include "skute/core/comm_stats.h"
#include "skute/core/decision.h"
#include "skute/core/net_stats.h"
#include "skute/core/executor.h"
#include "skute/core/policy.h"
#include "skute/core/query_routing.h"
#include "skute/core/sla.h"
#include "skute/core/vnode.h"
#include "skute/economy/proximity.h"
#include "skute/engine/epoch_pipeline.h"
#include "skute/io/durability_options.h"
#include "skute/ring/catalog.h"
#include "skute/storage/replica_store.h"

namespace skute {

/// Store-wide configuration.
struct SkuteOptions {
  DecisionParams decision;
  /// Epoch decision-plane tuning: worker threads and shard layout (see
  /// skute/engine/epoch_options.h for the determinism contract).
  EpochOptions epoch;
  /// The paper's 256 MB partition cap: a partition that grows past this
  /// splits into two.
  uint64_t max_partition_bytes = 256 * kMB;
  /// Seed for initial placement and executor shuffling.
  uint64_t seed = 42;
  /// Maintain real key-value bytes in per-server ReplicaStores when values
  /// are provided (examples/tests); synthetic puts never materialize data.
  bool track_real_data = true;
  /// Async durability plane: I/O offload pool, group-committed flushes,
  /// periodic checkpoints, log shipping. Defaults keep it all off.
  DurabilityOptions durability;
};

/// A tenant: a named application owning one ring per SLA level.
struct Application {
  AppId id = 0;
  std::string name;
  std::vector<RingId> rings;
};

/// Availability/utilization summary of one ring (see ReportRing).
struct RingReport {
  size_t partitions = 0;
  size_t vnodes = 0;
  size_t below_threshold = 0;  // partitions violating their SLA right now
  size_t lost = 0;             // partitions with zero live replicas
  double min_availability = 0.0;
  double mean_availability = 0.0;
  uint64_t logical_bytes = 0;        // one copy
  uint64_t replicated_bytes = 0;     // all copies
  uint64_t queries_this_epoch = 0;   // requested (routed) queries
  double rent_paid_this_epoch = 0.0;
  double rent_paid_total = 0.0;
};

/// \brief Skute: the scattered key-value store.
///
/// The facade wires together the cluster substrate, the virtual rings, the
/// economy and the Section II-C decision process. Epoch lifecycle:
///
/// \code
///   SkuteStore store(&cluster, opts);
///   AppId app = store.CreateApplication("crm");
///   RingId ring = *store.AttachRing(app, SlaLevel::ForReplicas(3, 1.0), 64);
///   for (;;) {
///     store.BeginEpoch();             // prices published (Eq. 1)
///     ... Put/Get/RouteQueries ...    // the epoch's traffic
///     store.EndEpoch();               // Eq. 5 balances, agents act
///   }
/// \endcode
class SkuteStore {
 public:
  SkuteStore(Cluster* cluster, const SkuteOptions& options);
  ~SkuteStore();

  SkuteStore(const SkuteStore&) = delete;
  SkuteStore& operator=(const SkuteStore&) = delete;

  // --- Tenancy ------------------------------------------------------------

  /// Registers an application; names need not be unique (ids are).
  AppId CreateApplication(std::string name);

  /// Attaches a ring with `initial_partitions` partitions at the given SLA
  /// level. Every partition receives one replica on a random online server
  /// (the paper's startup state); the repair pass grows each partition to
  /// its SLA from the first EndEpoch on.
  Result<RingId> AttachRing(AppId app, const SlaLevel& sla,
                            uint32_t initial_partitions);

  /// Sets the client geo-distribution of a ring (nullptr semantics: call
  /// with an empty mix to reset to uniform).
  Status SetClientMix(RingId ring, ClientMix mix);

  const Application* application(AppId id) const;
  size_t application_count() const { return apps_.size(); }
  const SlaLevel* sla_of_ring(RingId ring) const;

  // --- Data plane (real values) -------------------------------------------

  /// Writes a key-value pair: updates the object catalog, reserves storage
  /// on every replica server, stores the bytes in each replica's KvStore,
  /// and splits the partition if it crossed the cap.
  Status Put(RingId ring, std::string_view key, std::string_view value);

  /// Reads a key from the best live replica (proximity-weighted, then
  /// least-loaded) and accounts the query against that server's capacity.
  Result<std::string> Get(RingId ring, std::string_view key);

  /// Deletes a key from the catalog and all replicas.
  Status Delete(RingId ring, std::string_view key);

  /// The service plane's single-key read: Get plus the routing contract
  /// the synthetic batch path keeps. Every live-traffic request counts
  /// as requested in last_route(); replica selection debits the chosen
  /// server's ServeQueries capacity *before* the object lookup (a miss
  /// still consumed a routed query, exactly like a synthetic query whose
  /// key hash matches no object), and a partition with zero live
  /// replicas counts as lost. This is what makes served wire ops visible
  /// to the availability economics alongside RouteQueryBatch traffic.
  Result<std::string> ServeGet(RingId ring, std::string_view key);

  /// Put with a materialized synthetic value of `value_bytes` bytes: the
  /// real-data sibling of PutSynthetic. What the simulator's --real-data
  /// mode drives, so durable/file backends see genuine write traffic
  /// (WAL appends, flush watermarks, shippable deltas) without callers
  /// inventing payloads.
  Status PutSized(RingId ring, std::string_view key, uint32_t value_bytes);

  // --- Data plane (synthetic, simulator) ----------------------------------

  /// Catalog-only insert of `size_bytes` under the given key hash; same
  /// placement/accounting path as Put without materializing bytes.
  Status PutSynthetic(RingId ring, uint64_t key_hash, uint32_t size_bytes);

  // --- Query plane (aggregate, simulator) ----------------------------------

  /// Routes a whole epoch's query batch through the engine's RouteStage:
  /// the batch is sharded by partition (same shard layout as the decision
  /// plane) and fanned out over the worker pool, with per-shard
  /// accumulators merged in shard order so threads=1 and threads=N
  /// produce bit-for-bit identical routing counters. Returns this batch's
  /// outcome; the epoch's running totals are in last_route().
  RouteResult RouteQueryBatch(const QueryBatch& batch);

  /// Routes `count` queries for one partition across its live replicas
  /// (proximity-weighted largest-remainder shares, zero-weight replicas
  /// skipped) and accounts served/dropped per server. Serial convenience
  /// path for tests/benches; batch traffic goes through RouteQueryBatch.
  void RouteQueriesToPartition(Partition* partition, uint64_t count);

  /// Convenience: route by key hash.
  void RouteQueries(RingId ring, uint64_t key_hash, uint64_t count);

  // --- Epoch lifecycle ------------------------------------------------------
  //
  // Both calls are thin delegations into the EpochPipeline (skute/engine):
  // the store builds an EpochContext over its own state and the pipeline's
  // stages do all the work.

  /// Runs the kBegin stages: publishes prices (Eq. 1 via the board) and
  /// clears epoch counters.
  void BeginEpoch();

  /// Runs the kEnd stages: records Eq. 5 balances for every vnode, runs
  /// the repair and economic passes (sharded across
  /// EpochOptions::threads), executes the proposed actions, and returns
  /// the execution counters.
  ExecutorStats EndEpoch();

  Epoch epoch() const { return epoch_; }

  /// The epoch pipeline driving BeginEpoch/EndEpoch (exposed so callers
  /// can inspect stages or append custom ones).
  EpochPipeline& epoch_pipeline() { return pipeline_; }
  const EpochPipeline& epoch_pipeline() const { return pipeline_; }

  // --- Failure integration --------------------------------------------------

  /// Must be called after Cluster::FailServer: unregisters every replica
  /// the dead server held and deletes their agents. Partitions left with
  /// zero replicas are counted as lost.
  void HandleServerFailure(ServerId id);

  /// Chaos plane: every storage backend created from now on is wrapped
  /// in a FaultyBackend reading `state` / tallying into `counters`
  /// (both must outlive the store). Call before any data lands — i.e.
  /// before Initialize/AttachRing traffic — so the whole fleet is
  /// wrapped; backends created earlier stay fault-free.
  void EnableChaos(const chaos::StorageFaultState* state,
                   chaos::ChaosCounters* counters) {
    fault_state_ = state;
    chaos_counters_ = counters;
  }

  // --- Introspection ---------------------------------------------------------

  Cluster& cluster() { return *cluster_; }
  const Cluster& cluster() const { return *cluster_; }
  RingCatalog& catalog() { return catalog_; }
  const RingCatalog& catalog() const { return catalog_; }
  VNodeRegistry& vnodes() { return vnodes_; }
  const SkuteOptions& options() const { return options_; }

  /// Live replica count per server id (the Fig. 2 series).
  std::vector<uint32_t> VNodesPerServer() const;

  /// Per-(ring, server) queries served this epoch, indexed
  /// [ring][server] (the Fig. 4 series).
  std::vector<std::vector<uint64_t>> QueriesServedPerRingPerServer() const;

  RingReport ReportRing(RingId ring) const;

  uint64_t lost_partitions() const { return lost_partitions_; }
  uint64_t insert_failures() const { return insert_failures_; }
  const ExecutorStats& last_epoch_stats() const { return last_stats_; }

  /// Routing totals of the current/just-closed epoch (requested, routed,
  /// lost, route-stage wall time); reset at BeginEpoch. Covers both
  /// RouteQueryBatch and the serial RouteQueries* path.
  const RouteResult& last_route() const { return last_route_; }

  /// Per-partition traffic counters of the current/just-closed epoch
  /// (what the decision passes price against).
  const PartitionStatsTable& partition_stats() const { return stats_; }

  /// Communication overhead of the current/just-closed epoch and the
  /// lifetime totals (the paper's future-work metric).
  const CommStats& comm_this_epoch() const { return comm_epoch_; }
  const CommStats& comm_total() const { return comm_total_; }

  /// Service-plane counters of the current/just-closed epoch (what the
  /// skute/net acceptor and dispatcher did in this epoch's serve
  /// windows; all-zero without a server attached).
  const NetStats& net_this_epoch() const { return net_epoch_; }
  /// Lifetime service-plane totals including the open epoch.
  NetStats net_lifetime() const {
    NetStats total = net_total_;
    total.Accumulate(net_epoch_);
    return total;
  }
  /// The sink the net plane's acceptor/dispatcher write into.
  NetStats* mutable_net_stats() { return &net_epoch_; }

  /// The client geo-distribution of a ring (nullptr = uniform).
  const ClientMix* client_mix(RingId ring) const { return MixOf(ring); }

  /// Monotonic counter bumped whenever any replica placement or ring
  /// structure changes (splits, repairs, migrations, suicides, failures).
  /// The engine's ShardPlanCache rebuilds its shard plan only when it
  /// moves; metrics and the flight recorder report it.
  uint64_t placement_version() const { return placement_version_; }

  /// Aggregate I/O counters of every server's storage backends (zeroes
  /// when real-data tracking is off). What MetricsCollector surfaces so
  /// benches can price placement against real persistence cost.
  IoStats io_stats() const { return replica_data_.AggregateIo(); }

  /// The I/O offload pool (nullptr when durability.io_threads == 0).
  IoPool* io_pool() { return io_pool_.get(); }

  /// Partitions whose primary took log-shipped writes since the last
  /// durability-stage sync (empty unless durability.log_shipping).
  size_t dirty_partition_count() const { return dirty_partitions_.size(); }

  /// The policies vector the decision passes run against (rebuilt lazily).
  const std::vector<RingPolicy>& policies();

  /// Replaces the placement policy (default: EconomicPolicy with the
  /// store's decision parameters). Used by the baseline benches.
  void SetPlacementPolicy(std::unique_ptr<PlacementPolicy> policy);
  const PlacementPolicy& placement_policy() const { return *policy_; }

 private:
  struct RingInfo {
    AppId app = 0;
    SlaLevel sla;
    ClientMix mix;  // empty = uniform
  };

  /// The BackendFactory for one server's replica data: the server's
  /// BackendConfig, scoped to a per-server data subtree.
  BackendFactory FactoryForServer(ServerId id) const;

  Status ApplyUpsert(RingId ring, uint64_t key_hash, uint32_t size_bytes,
                     std::string_view key, const std::string* value);
  /// Best live replica of `p` for a single-key read: proximity-weighted,
  /// then least-loaded this epoch (the Get/ServeGet selection rule).
  Server* BestLiveReplica(const Partition& p, RingId ring,
                          VNodeId* vnode_out);
  Status ReserveOnReplicas(Partition* p, int64_t delta);
  void MaybeSplit(Partition* p);
  void PlaceSiblingReplicas(Partition* parent, Partition* sibling);
  void SplitRealData(const Partition& lower, const Partition& upper);
  void MoveSiblingData(PartitionId sibling, ServerId from, ServerId to);
  const ClientMix* MixOf(RingId ring) const;
  /// Builds the per-epoch context the pipeline stages run against.
  /// `policies` is the rebuilt per-ring policy view (nullptr for kBegin).
  EpochContext MakeEpochContext(const std::vector<RingPolicy>* policies);

  Cluster* cluster_;
  SkuteOptions options_;
  /// Chaos plane attachment (nullptr = no fault injection).
  const chaos::StorageFaultState* fault_state_ = nullptr;
  chaos::ChaosCounters* chaos_counters_ = nullptr;
  RingCatalog catalog_;
  VNodeRegistry vnodes_;
  std::unique_ptr<PlacementPolicy> policy_;
  /// Declared before replica_data_: backends Forget() themselves from the
  /// pool in their destructors, so the pool must outlive every backend.
  std::unique_ptr<IoPool> io_pool_;
  ReplicaDataMap replica_data_;
  ActionExecutor executor_;
  Rng rng_;
  EpochPipeline pipeline_;

  std::vector<Application> apps_;
  std::deque<RingInfo> ring_info_;  // stable addresses; indexed by RingId
  std::vector<RingPolicy> policies_;

  Epoch epoch_ = 0;
  PartitionStatsTable stats_;
  /// Log-shipping bookkeeping: partitions whose primary absorbed writes
  /// that secondaries have not seen yet (synced + cleared by the
  /// durability stage each epoch).
  std::unordered_set<PartitionId> dirty_partitions_;
  std::vector<uint64_t> ring_queries_epoch_;
  std::vector<double> ring_spend_epoch_;
  std::vector<double> ring_spend_total_;
  uint64_t lost_partitions_ = 0;
  uint64_t insert_failures_ = 0;
  ExecutorStats last_stats_;
  RouteResult last_route_;
  CommStats comm_epoch_;
  CommStats comm_total_;
  NetStats net_epoch_;
  NetStats net_total_;
  uint64_t placement_version_ = 0;
};

}  // namespace skute

#endif  // SKUTE_CORE_STORE_H_
