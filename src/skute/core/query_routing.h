#ifndef SKUTE_CORE_QUERY_ROUTING_H_
#define SKUTE_CORE_QUERY_ROUTING_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/core/comm_stats.h"
#include "skute/core/decision.h"
#include "skute/core/vnode.h"
#include "skute/economy/proximity.h"
#include "skute/ring/partition.h"

namespace skute {

/// \brief One epoch's aggregate query workload: partition id -> requested
/// query count. Workload generators fill a batch without touching the
/// store; SkuteStore::RouteQueryBatch routes it in one sharded pass over
/// the engine's worker pool (the RouteStage). Partition ids are dense and
/// never reused, so the counts are a vector indexed by id; a read past
/// the end is zero.
class QueryBatch {
 public:
  /// Accumulates `count` queries against a partition (0 is a no-op).
  void Add(PartitionId partition, uint64_t count) {
    if (partition == kInvalidPartition || count == 0) return;
    if (partition >= counts_.size()) counts_.resize(partition + 1, 0);
    counts_[partition] += count;
    total_ += count;
  }

  /// Requested queries for one partition (0 when absent).
  uint64_t CountFor(PartitionId partition) const {
    return partition < counts_.size() ? counts_[partition] : 0;
  }

  uint64_t total() const { return total_; }
  bool empty() const { return total_ == 0; }

  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// \brief Outcome of routing query traffic (one batch, or the whole
/// epoch when read through SkuteStore::last_route).
struct RouteResult {
  /// Queries the workload asked to route.
  uint64_t requested = 0;
  /// Subset that reached a live replica (served or dropped at the
  /// server's capacity — drops are counted per server, not here).
  uint64_t routed = 0;
  /// Subset that found no live replica at all.
  uint64_t lost = 0;
  /// Wall time spent in the route stage.
  double route_ms = 0.0;

  void Accumulate(const RouteResult& other) {
    requested += other.requested;
    routed += other.routed;
    lost += other.lost;
    route_ms += other.route_ms;
  }
};

/// One replica's share of a partition's queries, resolved to the live
/// server and its vnode agent during the (parallel) compute pass.
struct RouteShare {
  Server* server = nullptr;
  VirtualNode* vnode = nullptr;
  uint64_t share = 0;
};

/// \brief Shard-local routing accumulator. The compute pass
/// (ComputePartitionRoute) only appends here — it never touches store
/// state — so shards can run concurrently; ApplyRouteAccum merges the
/// accumulators serially in shard order, which keeps every counter and
/// the capacity-admission order identical for any thread count.
struct RouteAccum {
  uint64_t requested = 0;
  uint64_t lost = 0;
  uint64_t query_msgs = 0;
  std::vector<std::pair<PartitionId, uint64_t>> partition_queries;
  std::vector<std::pair<RingId, uint64_t>> ring_queries;
  std::vector<RouteShare> shares;
};

/// \brief Deterministic largest-remainder apportionment: splits `count`
/// into integer shares proportional to `weights`.
///
/// Each positive-weight entry receives floor(count * w / W); the rounding
/// remainder goes to the entries with the largest fractional parts
/// (ties broken by lowest index). Entries with weight <= 0 always receive
/// 0. Requires at least one positive weight; all-nonpositive weights
/// yield all-zero shares (callers fall back to uniform weights first).
std::vector<uint64_t> ApportionLargestRemainder(
    const std::vector<double>& weights, uint64_t count);

/// \brief Computes one partition's routing into `accum` without mutating
/// any store state (re-entrant: read-only over cluster/vnodes/partition,
/// writes only the accumulator). Shares are proximity-weighted
/// largest-remainder apportionments over the live replicas; zero-weight
/// replicas are skipped (uniform fallback when every live replica has
/// weight 0). Queries against a partition with no live replica are
/// recorded as lost — but still counted as requested traffic, matching
/// the historical accounting.
void ComputePartitionRoute(Cluster* cluster, VNodeRegistry* vnodes,
                           const Partition& partition, uint64_t count,
                           const ClientMix* mix, RouteAccum* accum);

/// \brief Applies one accumulator: capacity admission (ServeQueries) in
/// accumulator order plus the counter merges. Must run on one thread,
/// accumulators in shard order — that ordering IS the determinism
/// contract of the parallel query plane. Serial convenience path
/// (SkuteStore::RouteQueriesToPartition); batch traffic goes through
/// ApplyRouteAccumsBatched.
void ApplyRouteAccum(const RouteAccum& accum, PartitionStatsTable* stats,
                     std::vector<uint64_t>* ring_queries_epoch,
                     CommStats* comm_epoch, RouteResult* result);

/// \brief Applies a whole batch of shard accumulators with **batched
/// per-server capacity admission**: instead of one Server::ServeQueries
/// call per share entry, every server's shares are summed across all
/// accumulators and its capacity is debited once, with the grant handed
/// out greedily over the shares in (shard, share) order.
///
/// Greedy admission has the prefix property — serving shares one by one
/// and serving their sum then splitting the grant front-to-back debit the
/// same capacity and serve the same per-share counts — so every counter
/// (per-vnode routed/served, per-server served/dropped, stats, comm) is
/// bit-for-bit identical to the sequential ApplyRouteAccum loop, just
/// with one admission pass per server per batch. Must run on one thread,
/// accumulators in shard order.
void ApplyRouteAccumsBatched(const std::vector<RouteAccum>& accums,
                             PartitionStatsTable* stats,
                             std::vector<uint64_t>* ring_queries_epoch,
                             CommStats* comm_epoch, RouteResult* result);

}  // namespace skute

#endif  // SKUTE_CORE_QUERY_ROUTING_H_
