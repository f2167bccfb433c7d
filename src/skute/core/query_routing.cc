#include "skute/core/query_routing.h"

#include <algorithm>
#include <cmath>

namespace skute {

std::vector<uint64_t> ApportionLargestRemainder(
    const std::vector<double>& weights, uint64_t count) {
  std::vector<uint64_t> shares(weights.size(), 0);
  if (count == 0 || weights.empty()) return shares;

  double total_weight = 0.0;
  for (double w : weights) {
    if (w > 0.0) total_weight += w;
  }
  if (total_weight <= 0.0) return shares;

  // Integer floors first; the fractional parts decide who rounds up.
  struct Remainder {
    double frac;
    size_t index;
  };
  std::vector<Remainder> remainders;
  remainders.reserve(weights.size());
  uint64_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    const double ideal =
        static_cast<double>(count) * weights[i] / total_weight;
    const double floor = std::floor(ideal);
    shares[i] = static_cast<uint64_t>(floor);
    assigned += shares[i];
    remainders.push_back(Remainder{ideal - floor, i});
  }

  // Largest fractional part first; ties go to the lowest index so the
  // outcome is a pure function of (weights, count).
  std::sort(remainders.begin(), remainders.end(),
            [](const Remainder& a, const Remainder& b) {
              if (a.frac != b.frac) return a.frac > b.frac;
              return a.index < b.index;
            });
  // The remainder is < #positive-weight entries mathematically; the
  // clamp and modulo guard the floating-point edges where the floors
  // came out high or low.
  const uint64_t remainder = count > assigned ? count - assigned : 0;
  for (uint64_t k = 0; k < remainder; ++k) {
    ++shares[remainders[k % remainders.size()].index];
  }
  return shares;
}

void ComputePartitionRoute(Cluster* cluster, VNodeRegistry* vnodes,
                           const Partition& partition, uint64_t count,
                           const ClientMix* mix, RouteAccum* accum) {
  if (count == 0) return;
  // Requested traffic is accounted whether or not it can be routed
  // (query messages reach the partition's address either way).
  accum->requested += count;
  accum->query_msgs += count;
  accum->partition_queries.emplace_back(partition.id(), count);
  accum->ring_queries.emplace_back(partition.ring(), count);

  struct Target {
    Server* server;
    VirtualNode* vnode;
    double weight;
  };
  std::vector<Target> targets;
  for (const ReplicaInfo& r : partition.replicas()) {
    Server* s = cluster->server(r.server);
    if (s == nullptr || !s->online()) continue;
    // A chaos net-partition makes the replica mix-unreachable: weight 0,
    // same as a client mix with no proximity to it. If every live
    // replica is partitioned, the uniform fallback below still lands the
    // queries (clients retry blindly) — the partition is degraded, not
    // lost.
    const double g =
        s->net_partitioned()
            ? 0.0
            : (mix == nullptr ? 1.0
                              : NormalizedProximity(*mix, s->location()));
    targets.push_back(Target{s, vnodes->Find(r.vnode), g});
  }
  if (targets.empty()) {  // no live replica: the queries are lost
    accum->lost += count;
    return;
  }

  std::vector<double> weights;
  weights.reserve(targets.size());
  bool any_positive = false;
  for (const Target& t : targets) {
    weights.push_back(t.weight);
    if (t.weight > 0.0) any_positive = true;
  }
  // A zero-weight replica is one the client mix says is unreachable; it
  // must not absorb traffic. When every live replica is unreachable the
  // queries still have to land somewhere: fall back to uniform shares.
  if (!any_positive) {
    std::fill(weights.begin(), weights.end(), 1.0);
  }

  const std::vector<uint64_t> shares =
      ApportionLargestRemainder(weights, count);
  for (size_t i = 0; i < targets.size(); ++i) {
    if (shares[i] == 0) continue;
    accum->shares.push_back(
        RouteShare{targets[i].server, targets[i].vnode, shares[i]});
  }
}

namespace {

/// Counter merges of one accumulator — everything ApplyRouteAccum does
/// except capacity admission. Shared by the sequential and batched
/// appliers so their accounting can never drift apart.
void MergeAccumCounters(const RouteAccum& accum, PartitionStatsTable* stats,
                        std::vector<uint64_t>* ring_queries_epoch,
                        CommStats* comm_epoch, RouteResult* result) {
  for (const auto& [partition, queries] : accum.partition_queries) {
    (*stats)[partition].queries += queries;
  }
  for (const auto& [ring, queries] : accum.ring_queries) {
    if (ring < ring_queries_epoch->size()) {
      (*ring_queries_epoch)[ring] += queries;
    }
  }
  comm_epoch->query_msgs += accum.query_msgs;
  result->requested += accum.requested;
  result->routed += accum.requested - accum.lost;
  result->lost += accum.lost;
}

}  // namespace

void ApplyRouteAccum(const RouteAccum& accum, PartitionStatsTable* stats,
                     std::vector<uint64_t>* ring_queries_epoch,
                     CommStats* comm_epoch, RouteResult* result) {
  MergeAccumCounters(accum, stats, ring_queries_epoch, comm_epoch, result);
  for (const RouteShare& s : accum.shares) {
    const uint64_t served = s.server->ServeQueries(s.share);
    if (s.vnode != nullptr) {
      s.vnode->queries_routed += s.share;
      s.vnode->queries_served += served;
    }
  }
}

void ApplyRouteAccumsBatched(const std::vector<RouteAccum>& accums,
                             PartitionStatsTable* stats,
                             std::vector<uint64_t>* ring_queries_epoch,
                             CommStats* comm_epoch, RouteResult* result) {
  // Counter merges, in shard order (identical to the sequential loop).
  for (const RouteAccum& accum : accums) {
    MergeAccumCounters(accum, stats, ring_queries_epoch, comm_epoch,
                       result);
  }

  // Pass 1: total demand per server, servers in first-appearance order;
  // `slot` maps a ServerId to its entry in `demands`.
  struct ServerDemand {
    Server* server = nullptr;
    uint64_t total = 0;
    uint64_t granted = 0;
  };
  constexpr size_t kNoSlot = ~size_t{0};
  std::vector<ServerDemand> demands;
  std::vector<size_t> slot;
  for (const RouteAccum& accum : accums) {
    for (const RouteShare& s : accum.shares) {
      const ServerId id = s.server->id();
      if (id >= slot.size()) slot.resize(id + 1, kNoSlot);
      if (slot[id] == kNoSlot) {
        slot[id] = demands.size();
        demands.push_back(ServerDemand{s.server, 0, 0});
      }
      demands[slot[id]].total += s.share;
    }
  }

  // One capacity debit per server: served and dropped counts equal the
  // share-by-share sequence because ServeQueries is greedy.
  for (ServerDemand& d : demands) {
    d.granted = d.server->ServeQueries(d.total);
  }

  // Pass 2: hand each server's grant out front-to-back over its shares —
  // the greedy prefix, exactly what sequential admission produced.
  for (const RouteAccum& accum : accums) {
    for (const RouteShare& s : accum.shares) {
      ServerDemand& d = demands[slot[s.server->id()]];
      const uint64_t served = std::min(s.share, d.granted);
      d.granted -= served;
      if (s.vnode != nullptr) {
        s.vnode->queries_routed += s.share;
        s.vnode->queries_served += served;
      }
    }
  }
}

}  // namespace skute
