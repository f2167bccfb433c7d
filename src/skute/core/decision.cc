#include "skute/core/decision.h"

#include <algorithm>

#include "skute/common/logging.h"
#include "skute/economy/availability.h"
#include "skute/topology/location.h"

namespace skute {

namespace {

/// The live replica with the lowest server id — the deterministic "primary"
/// that initiates repair. kInvalidVNode when the partition has no live
/// replica (lost).
VNodeId PrimaryVNode(const Partition& partition, const Cluster& cluster,
                     ServerId* primary_server) {
  VNodeId best = kInvalidVNode;
  ServerId best_server = kInvalidServer;
  for (const ReplicaInfo& r : partition.replicas()) {
    const Server* s = cluster.server(r.server);
    if (s == nullptr || !s->online()) continue;
    if (best == kInvalidVNode || r.server < best_server) {
      best = r.vnode;
      best_server = r.server;
    }
  }
  if (primary_server != nullptr) *primary_server = best_server;
  return best;
}

/// A partition whose ring id is past the policy vector is a wiring bug
/// (rings attached without policies rebuilt); indexing would be silent
/// UB. Fail loudly — same stance as the query plane's misconfig checks —
/// and propose nothing for the partition.
bool CheckRingPolicy(const Partition& partition,
                     const std::vector<RingPolicy>& policies,
                     const char* pass) {
  if (partition.ring() < policies.size()) return true;
  SKUTE_LOG(kError) << "decision (" << pass << "): partition "
                    << partition.id() << " is on ring " << partition.ring()
                    << " but only " << policies.size()
                    << " ring policies are configured; skipping it";
  return false;
}

}  // namespace

void ProposeContext::FlushTally() const {
  if (candidates != nullptr) candidates->AddTally(tally->select);
  if (avail_cache != nullptr) avail_cache->AddTally(tally->cache);
  *tally = DecisionTally();
}

Result<CandidateChoice> DecisionEngine::SelectTarget(
    const Cluster& cluster, const std::vector<ServerId>& replica_servers,
    uint64_t bytes_needed, const ClientMix* mix,
    const std::vector<ServerId>& exclude, const RentSurcharge* surcharge,
    uint64_t tie_break_salt, const ProposeContext* pctx) const {
  if (pctx != nullptr && pctx->candidates != nullptr &&
      pctx->candidates->ready()) {
    return pctx->candidates->Select(replica_servers, bytes_needed, mix,
                                    exclude, surcharge, tie_break_salt,
                                    &pctx->tally->select);
  }
  return SelectTargetForSet(cluster, replica_servers, bytes_needed, mix,
                            params_.candidate, exclude, surcharge,
                            tie_break_salt);
}

void DecisionEngine::ProposeRepair(const Cluster& cluster,
                                   const Partition& partition,
                                   const std::vector<RingPolicy>& policies,
                                   RentSurcharge* surcharge,
                                   std::vector<Action>* actions,
                                   const ProposeContext* pctx) const {
  if (!CheckRingPolicy(partition, policies, "repair")) return;
  const RingPolicy& policy = policies[partition.ring()];
  if (policy.min_availability <= 0.0) return;

  std::vector<ServerId> live = ReplicaServerSet(partition);
  // Drop offline entries for the hypothetical availability computation.
  live.erase(std::remove_if(live.begin(), live.end(),
                            [&](ServerId id) {
                              const Server* s = cluster.server(id);
                              return s == nullptr || !s->online();
                            }),
             live.end());
  if (live.empty()) return;  // lost partition: no source to repair from

  // OfPartition over the live set — bit-identical to OfServerIds(live)
  // (same servers, same pair order), so the cached value is shared with
  // the economic pass.
  double avail =
      pctx != nullptr && pctx->avail_cache != nullptr
          ? pctx->avail_cache->AvailabilityOf(partition, cluster,
                                              &pctx->tally->cache)
          : AvailabilityModel::OfServerIds(cluster, live);
  if (avail >= policy.min_availability) return;

  ServerId primary_server = kInvalidServer;
  const VNodeId primary = PrimaryVNode(partition, cluster, &primary_server);

  for (int step = 0; step < params_.max_repair_steps_per_epoch &&
                     avail < policy.min_availability;
       ++step) {
    if (params_.max_replicas_per_partition != 0 &&
        live.size() >= params_.max_replicas_per_partition) {
      break;
    }
    auto choice = SelectTarget(cluster, live, partition.bytes(), policy.mix,
                               /*exclude=*/{}, surcharge,
                               /*tie_break_salt=*/partition.id(), pctx);
    if (!choice.ok()) break;
    Action a;
    a.type = ActionType::kReplicate;
    a.partition = partition.id();
    a.ring = partition.ring();
    a.vnode = primary;
    a.source = primary_server;
    a.target = choice->server;
    a.score = choice->score;
    a.reason = "repair: availability below threshold";
    actions->push_back(a);
    if (surcharge != nullptr) {
      surcharge->Add(choice->server, params_.pending_placement_penalty);
    }
    live.push_back(choice->server);
    avail = AvailabilityModel::OfServerIds(cluster, live);
  }
}

std::vector<Action> DecisionEngine::RepairPass(
    const Cluster& cluster, const RingCatalog& catalog,
    const std::vector<RingPolicy>& policies, RentSurcharge* surcharge,
    const ProposeContext* pctx) const {
  std::vector<Action> actions;
  catalog.ForEachPartition([&](const Partition* p) {
    ProposeRepair(cluster, *p, policies, surcharge, &actions, pctx);
  });
  return actions;
}

Action DecisionEngine::DecideForVNode(const Cluster& cluster,
                                      const Partition& partition,
                                      const VirtualNode& vnode,
                                      const RingPolicy& policy,
                                      double avail_now,
                                      const RentSurcharge* surcharge,
                                      const ProposeContext* pctx) const {
  Action none;
  if (!vnode.balance.NegativeStreak()) return none;

  const Server* self = cluster.server(vnode.server);
  if (self == nullptr || !self->online()) return none;

  // Suicide when the partition stays available without this replica.
  const double avail_without = AvailabilityModel::OfPartitionWithout(
      partition, cluster, vnode.server);
  if (partition.replica_count() > 1 &&
      avail_without >= policy.min_availability) {
    Action a;
    a.type = ActionType::kSuicide;
    a.partition = partition.id();
    a.ring = partition.ring();
    a.vnode = vnode.id;
    a.source = vnode.server;
    a.reason = "suicide: negative balance, availability holds without me";
    return a;
  }

  // Otherwise look for a strictly cheaper server that preserves
  // availability (the migration leg of Section II-C). No server's board
  // rent is below min_rent (servers offline at publication or added since
  // are priced at infinity), so when even min_rent misses the savings
  // gate, no target can pass it and the Eq. 3 scan is skipped.
  const Board& board = cluster.board();
  const double max_target_rent =
      board.RentOf(vnode.server) *
      (1.0 - params_.migration_savings_threshold);
  if (board.min_rent() >= max_target_rent) return none;

  const std::vector<ServerId> remaining =
      ReplicaServerSet(partition, vnode.server);
  auto choice = SelectTarget(cluster, remaining, partition.bytes(),
                             policy.mix, /*exclude=*/{vnode.server},
                             surcharge, /*tie_break_salt=*/partition.id(),
                             pctx);
  if (!choice.ok()) return none;
  if (board.RentOf(choice->server) >= max_target_rent) {
    return none;  // not enough savings to be worth the move
  }

  const double avail_after = AvailabilityModel::OfServerIdsWith(
      cluster, remaining, choice->server);
  const double required = std::min(policy.min_availability, avail_now);
  if (avail_after < required) return none;

  Action a;
  a.type = ActionType::kMigrate;
  a.partition = partition.id();
  a.ring = partition.ring();
  a.vnode = vnode.id;
  a.source = vnode.server;
  a.target = choice->server;
  a.score = choice->score;
  a.reason = "migrate: negative balance, cheaper server found";
  return a;
}

Action DecisionEngine::MaybeReplicate(const Cluster& cluster,
                                      const Partition& partition,
                                      const RingPolicy& policy,
                                      const PartitionEpochStats& stats,
                                      const RentSurcharge* surcharge,
                                      const ProposeContext* pctx) const {
  Action none;
  const size_t replicas = partition.replica_count();
  if (params_.max_replicas_per_partition != 0 &&
      replicas >= params_.max_replicas_per_partition) {
    return none;
  }
  if (replicas >= cluster.online_count()) return none;

  // Popularity must cover the new replica's rent plus the consistency
  // cost of one more copy (Section II-C replication verification). The
  // projected utility is this partition's epoch queries split across
  // R+1 replicas, valued at the target's proximity g.
  const double projected_queries =
      static_cast<double>(stats.queries) /
      static_cast<double>(replicas + 1);
  const auto projected_utility = [&](double g) {
    return params_.utility.value_per_query * projected_queries *
           (params_.utility.divide_by_proximity ? (g > 0 ? 1.0 / g : 1.0)
                                                : g);
  };
  const double consistency =
      params_.consistency.Cost(replicas + 1, stats.write_bytes);
  // Without a client mix g = 1 for every target, so the utility does not
  // depend on the target. No server's board rent is below min_rent, so
  // when even min_rent fails the gate the Eq. 3 winner would fail it too
  // and the scan is skipped.
  const Board& board = cluster.board();
  if (policy.mix == nullptr &&
      projected_utility(1.0) <= board.min_rent() + consistency) {
    return none;
  }

  auto choice = SelectTarget(cluster, ReplicaServerSet(partition),
                             partition.bytes(), policy.mix,
                             /*exclude=*/{}, surcharge,
                             /*tie_break_salt=*/partition.id(), pctx);
  if (!choice.ok()) return none;
  const double g =
      policy.mix == nullptr
          ? 1.0
          : NormalizedProximity(*policy.mix,
                                cluster.server(choice->server)->location());
  if (projected_utility(g) <= board.RentOf(choice->server) + consistency) {
    return none;
  }

  Action a;
  a.type = ActionType::kReplicate;
  a.partition = partition.id();
  a.ring = partition.ring();
  a.source = kInvalidServer;  // executor picks a live, bandwidth-free source
  a.target = choice->server;
  a.score = choice->score;
  a.reason = "replicate: popularity covers rent and consistency cost";
  return a;
}

void DecisionEngine::ProposeEconomic(const Cluster& cluster,
                                     const Partition& partition,
                                     const VNodeRegistry& vnodes,
                                     const std::vector<RingPolicy>& policies,
                                     const PartitionStatsTable& stats,
                                     RentSurcharge* surcharge,
                                     std::vector<Action>* actions,
                                     const ProposeContext* pctx) const {
  auto charge = [&](const Action& a) {
    if (surcharge != nullptr && a.target != kInvalidServer) {
      surcharge->Add(a.target, params_.pending_placement_penalty);
    }
  };

  if (!CheckRingPolicy(partition, policies, "economic")) return;
  const RingPolicy& policy = policies[partition.ring()];
  ProposalCache* cache =
      pctx != nullptr ? pctx->avail_cache : nullptr;
  ProposalCache::Tally* cache_tally =
      cache != nullptr ? &pctx->tally->cache : nullptr;
  const double avail = cache != nullptr
                           ? cache->AvailabilityOf(partition, cluster,
                                                   cache_tally)
                           : AvailabilityModel::OfPartition(partition,
                                                            cluster);
  if (avail < policy.min_availability) {
    return;  // under-replicated: repair owns this partition this epoch
  }

  // Dirty check: a partition can only act when some replica vnode holds
  // a full negative streak (cost-cutting) or positive streak (growth) —
  // the quiescent path below reads nothing else, so skipping clean
  // partitions is exact. The flags come precomputed from
  // RecordBalancesStage when available (it already visited every vnode),
  // from an inline scan otherwise.
  bool has_negative = false;
  bool has_positive = false;
  bool flags_known = false;
  if (pctx != nullptr && pctx->streak_flags != nullptr &&
      partition.id() < pctx->streak_flags->size()) {
    const uint8_t flags = (*pctx->streak_flags)[partition.id()];
    if (flags & kStreakFlagsValid) {
      flags_known = true;
      has_negative = (flags & kStreakNegative) != 0;
      has_positive = (flags & kStreakPositive) != 0;
    }
  }
  if (!flags_known) {
    for (const ReplicaInfo& r : partition.replicas()) {
      const VirtualNode* v = vnodes.Find(r.vnode);
      if (v == nullptr) continue;
      has_negative = has_negative || v->balance.NegativeStreak();
      has_positive = has_positive || v->balance.PositiveStreak();
      if (has_negative && has_positive) break;
    }
  }
  if (!has_negative && !has_positive) {
    if (cache_tally != nullptr) ++cache_tally->clean;
    return;  // quiescent: last epoch's no-action outcome stands
  }
  if (cache_tally != nullptr) ++cache_tally->dirty;

  // Cost-cutting first: the first vnode (replica order) with a negative
  // streak acts; one action per partition per epoch. DecideForVNode
  // returns none for every vnode without a negative streak, so the loop
  // only runs when one exists.
  if (has_negative) {
    for (const ReplicaInfo& r : partition.replicas()) {
      const VirtualNode* v = vnodes.Find(r.vnode);
      if (v == nullptr) continue;
      Action a = DecideForVNode(cluster, partition, *v, policy, avail,
                                surcharge, pctx);
      if (a.type != ActionType::kNone) {
        charge(a);
        actions->push_back(a);
        return;
      }
    }
  }

  // Growth second: replicate when some replica sustained profit.
  if (!has_positive) return;
  Action a = MaybeReplicate(cluster, partition, policy,
                            stats.Get(partition.id()), surcharge, pctx);
  if (a.type != ActionType::kNone) {
    charge(a);
    actions->push_back(a);
  }
}

std::vector<Action> DecisionEngine::EconomicPass(
    const Cluster& cluster, const RingCatalog& catalog,
    const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
    const PartitionStatsTable& stats, RentSurcharge* surcharge,
    const ProposeContext* pctx) const {
  std::vector<Action> actions;
  catalog.ForEachPartition([&](const Partition* p) {
    ProposeEconomic(cluster, *p, vnodes, policies, stats, surcharge,
                    &actions, pctx);
  });
  return actions;
}

std::vector<Action> DecisionEngine::ProposeAll(
    const Cluster& cluster, const RingCatalog& catalog,
    const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
    const PartitionStatsTable& stats, const ProposeContext* pctx) const {
  RentSurcharge surcharge;
  std::vector<Action> actions =
      RepairPass(cluster, catalog, policies, &surcharge, pctx);
  std::vector<Action> econ = EconomicPass(cluster, catalog, vnodes,
                                          policies, stats, &surcharge, pctx);
  actions.insert(actions.end(), econ.begin(), econ.end());
  return actions;
}

std::vector<Action> DecisionEngine::ProposeForPartitions(
    const Cluster& cluster,
    const std::vector<const Partition*>& partitions,
    const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
    const PartitionStatsTable& stats, const ProposeContext* pctx) const {
  // Same pass order as ProposeAll — repair over the whole shard, then
  // economic — so a single-shard plan reproduces it action for action.
  RentSurcharge surcharge;
  std::vector<Action> actions;
  for (const Partition* p : partitions) {
    ProposeRepair(cluster, *p, policies, &surcharge, &actions, pctx);
  }
  for (const Partition* p : partitions) {
    ProposeEconomic(cluster, *p, vnodes, policies, stats, &surcharge,
                    &actions, pctx);
  }
  return actions;
}

}  // namespace skute
