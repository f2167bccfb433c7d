#include "skute/engine/stages.h"

#include <algorithm>
#include <vector>

#include "skute/common/logging.h"
#include "skute/core/decision_cache.h"
#include "skute/economy/proximity.h"
#include "skute/io/io_pool.h"
#include "skute/obs/trace.h"

namespace skute {

// --- PublishPricesStage -----------------------------------------------------

void PublishPricesStage::Run(EpochContext& ctx) {
  ctx.cluster->BeginEpoch();
  ctx.stats->Clear();
  ctx.vnodes->ForEach([](VirtualNode* v) { v->ResetEpochCounters(); });
  std::fill(ctx.ring_queries_epoch->begin(), ctx.ring_queries_epoch->end(),
            0);
  std::fill(ctx.ring_spend_epoch->begin(), ctx.ring_spend_epoch->end(),
            0.0);
  ctx.comm_epoch->Clear();
  ctx.comm_epoch->board_msgs += ctx.cluster->online_count();
  if (ctx.net_epoch != nullptr) {
    // Service-plane counters roll into the lifetime totals at the epoch
    // boundary, mirroring how the metrics CSV reads comm_epoch: the
    // per-epoch struct covers exactly one epoch's serve windows.
    if (ctx.net_total != nullptr) ctx.net_total->Accumulate(*ctx.net_epoch);
    ctx.net_epoch->Clear();
  }
  if (ctx.last_route != nullptr) *ctx.last_route = RouteResult();
}

// --- RouteStage -------------------------------------------------------------

void RouteStage::Run(EpochContext& ctx) {
  const QueryBatch* batch = ctx.query_batch;
  ctx.route_result = RouteResult();
  if (batch == nullptr || batch->empty()) return;
  const ShardPlan& plan = ctx.Shards();

  // Parallel compute: each shard walks its partitions in plan order and
  // resolves shares into its own accumulator — no shared writes.
  std::vector<RouteAccum> accums(plan.shard_count());
  ctx.RunSharded([&](size_t shard, Rng* /*rng*/) {
    RouteAccum& accum = accums[shard];
    for (const Partition* p : plan.shard(shard)) {
      const uint64_t count = batch->CountFor(p->id());
      if (count == 0) continue;
      const ClientMix* mix =
          ctx.policies != nullptr && p->ring() < ctx.policies->size()
              ? (*ctx.policies)[p->ring()].mix
              : nullptr;
      ComputePartitionRoute(ctx.cluster, ctx.vnodes, *p, count, mix,
                            &accum);
    }
  }, "route.shard");

  // Serial merge in shard order, with capacity admission batched per
  // server: each server's capacity is debited by one ServeQueries call
  // for the whole batch (bit-identical to per-share admission — see
  // ApplyRouteAccumsBatched).
  ApplyRouteAccumsBatched(accums, ctx.stats, ctx.ring_queries_epoch,
                          ctx.comm_epoch, &ctx.route_result);

  // Batch entries the plan snapshot no longer covers (a partition created
  // after the batch was built) are unroutable: account them as lost
  // rather than dropping them silently.
  const uint64_t missed = batch->total() - ctx.route_result.requested;
  ctx.route_result.requested += missed;
  ctx.route_result.lost += missed;
}

// --- RecordBalancesStage ----------------------------------------------------

void RecordBalancesStage::Run(EpochContext& ctx) {
  const Board& board = ctx.cluster->board();
  const double floor = board.min_rent();
  const ShardPlan& plan = ctx.Shards();
  const size_t rings = ctx.ring_spend_epoch->size();

  // Post-record streak flags for the proposal stage's dirty check; this
  // stage holds every vnode in hand anyway. Each partition id is written
  // by exactly one shard.
  const bool want_flags =
      ctx.decision != nullptr && ctx.decision->use_proposal_cache &&
      ctx.catalog != nullptr;
  if (want_flags) {
    ctx.streak_flags.assign(
        static_cast<size_t>(ctx.catalog->partition_id_bound()), 0);
  } else {
    ctx.streak_flags.clear();
  }

  // Per-shard rent partials: each shard sums its own partitions in
  // catalog order; the merge below runs in shard order on one thread.
  std::vector<std::vector<double>> spend(
      plan.shard_count(), std::vector<double>(rings, 0.0));

  ctx.RunSharded([&](size_t shard, Rng* /*rng*/) {
    for (const Partition* p : plan.shard(shard)) {
      if (p->ring() >= ctx.policies->size()) {
        SKUTE_LOG(kError) << "record_balances: partition " << p->id()
                          << " is on ring " << p->ring() << " but only "
                          << ctx.policies->size()
                          << " ring policies are configured; skipping it";
        continue;
      }
      const ClientMix* mix = (*ctx.policies)[p->ring()].mix;
      uint8_t flags = kStreakFlagsValid;
      for (const ReplicaInfo& r : p->replicas()) {
        VirtualNode* v = ctx.vnodes->Find(r.vnode);
        if (v == nullptr) continue;
        const Server* s = ctx.cluster->server(r.server);
        if (s != nullptr && s->online()) {
          const double g = mix == nullptr
                               ? 1.0
                               : NormalizedProximity(*mix, s->location());
          double utility =
              QueryUtility(v->queries_served, g, ctx.decision->utility);
          if (ctx.decision->utility_floor) {
            utility = std::max(utility, floor);
          }
          const double rent = board.RentOf(r.server);
          v->balance.Record(utility - rent);
          if (p->ring() < rings) {
            spend[shard][p->ring()] += rent;
          }
        }
        // Streak state *after* this epoch's record — exactly what the
        // proposal pass will read. Replicas on offline servers record
        // nothing but their vnodes still vote (ProposeEconomic consults
        // them too).
        if (want_flags) {
          if (v->balance.NegativeStreak()) flags |= kStreakNegative;
          if (v->balance.PositiveStreak()) flags |= kStreakPositive;
        }
      }
      if (want_flags && p->id() < ctx.streak_flags.size()) {
        ctx.streak_flags[p->id()] = flags;
      }
    }
  }, "balances.shard");

  for (size_t shard = 0; shard < plan.shard_count(); ++shard) {
    for (size_t ring = 0; ring < rings; ++ring) {
      (*ctx.ring_spend_epoch)[ring] += spend[shard][ring];
      (*ctx.ring_spend_total)[ring] += spend[shard][ring];
    }
  }
}

// --- ProposeActionsStage ----------------------------------------------------

void ProposeActionsStage::Run(EpochContext& ctx) {
  if (ctx.policy->SupportsShardedProposals()) {
    const ShardPlan& plan = ctx.Shards();
    // Prepare step: the policy builds its per-epoch decision inputs
    // (candidate scoring context, availability-cache epoch, streak flags)
    // once, fanning partition-independent work over the pool, before the
    // per-shard proposal fan-out reads them concurrently.
    ctx.policy->BeginProposalEpoch(
        *ctx.cluster, *ctx.catalog, *ctx.policies,
        ctx.streak_flags.empty() ? nullptr : &ctx.streak_flags,
        [&ctx](size_t count, const std::function<void(size_t)>& fn) {
          ctx.RunIndexed(count, fn, "propose.prepare");
        });
    std::vector<std::vector<Action>> per_shard(plan.shard_count());
    ctx.RunSharded([&](size_t shard, Rng* /*rng*/) {
      per_shard[shard] = ctx.policy->ProposeActionsForShard(
          *ctx.cluster, plan.shard(shard), *ctx.vnodes, *ctx.policies,
          *ctx.stats);
    }, "propose.shard");
    ctx.policy->EndProposalEpoch();
    ctx.actions.clear();
    for (const std::vector<Action>& shard_actions : per_shard) {
      ctx.actions.insert(ctx.actions.end(), shard_actions.begin(),
                         shard_actions.end());
    }
  } else {
    ctx.actions = ctx.policy->ProposeActions(
        *ctx.cluster, *ctx.catalog, *ctx.vnodes, *ctx.policies, *ctx.stats);
  }
  ctx.comm_epoch->control_msgs += ctx.actions.size();
}

// --- ExecuteStage -----------------------------------------------------------

void ExecuteStage::Run(EpochContext& ctx) {
  // Phase 1 (serial): shuffle + conflict grouping + vnode-id/store
  // pre-allocation. The plan is a pure function of the store's RNG
  // stream, never of the thread count.
  ExecutionPlan plan;
  {
    obs::TraceSpan span("exec", "execute.plan",
                        static_cast<uint64_t>(ctx.actions.size()));
    plan = ctx.executor->Plan(std::move(ctx.actions), ctx.rng);
  }
  ctx.actions.clear();

  // Phase 2 (parallel): disjoint conflict groups apply concurrently —
  // re-validation, bandwidth/storage admission, and snapshot streaming
  // all touch only the group's own servers.
  std::vector<ExecGroupResult> results(plan.groups.size());
  ctx.RunIndexed(plan.groups.size(), [&](size_t g) {
    results[g] = ctx.executor->ApplyGroup(plan, g, *ctx.policies,
                                          *ctx.epoch);
  }, "execute.group");

  // Phase 3 (serial): merge counters and deferred vnode-registry
  // mutations in group order, then the residual serial group.
  {
    obs::TraceSpan span("exec", "execute.commit",
                        static_cast<uint64_t>(plan.groups.size()));
    *ctx.last_stats = ctx.executor->Commit(plan, std::move(results),
                                           *ctx.policies, *ctx.epoch);
  }
  if (ctx.last_stats->applied() > 0) ++*ctx.placement_version;
}

// --- DurabilityStage --------------------------------------------------------

void DurabilityStage::Run(EpochContext& ctx) {
  if (ctx.replica_data == nullptr) return;
  const DurabilityOptions* opts = ctx.durability;

  // (1) Log shipping: secondaries catch up from each dirty partition's
  // primary. Dirty ids are sorted first so the transfer order (and hence
  // the per-backend byte counters and trace spans) never depends on the
  // unordered set's iteration order.
  if (opts != nullptr && opts->log_shipping &&
      ctx.dirty_partitions != nullptr && !ctx.dirty_partitions->empty()) {
    obs::TraceSpan span(
        "io", "durability.ship_logs",
        static_cast<uint64_t>(ctx.dirty_partitions->size()));
    std::vector<PartitionId> dirty(ctx.dirty_partitions->begin(),
                                   ctx.dirty_partitions->end());
    std::sort(dirty.begin(), dirty.end());
    for (const PartitionId pid : dirty) {
      const Partition* p = ctx.catalog->partition(pid);
      if (p == nullptr) continue;  // lost since the write
      // The primary is the first live replica actually hosting bytes:
      // the write path targeted the first live replica at write time,
      // but replicas may have moved during execution, so resolve against
      // live state rather than a remembered server id.
      const ReplicaStore* primary = nullptr;
      ServerId primary_server = kInvalidServer;
      for (const ReplicaInfo& r : p->replicas()) {
        const Server* s = ctx.cluster->server(r.server);
        if (s == nullptr || !s->online()) continue;
        const ReplicaStore* rs = ctx.replica_data->Find(r.server);
        if (rs != nullptr && rs->Find(pid) != nullptr) {
          primary = rs;
          primary_server = r.server;
          break;
        }
      }
      if (primary == nullptr) continue;
      for (const ReplicaInfo& r : p->replicas()) {
        if (r.server == primary_server) continue;
        const Server* s = ctx.cluster->server(r.server);
        if (s == nullptr || !s->online()) continue;
        auto shipped =
            ctx.replica_data->For(r.server).CopyFrom(*primary, pid);
        if (!shipped.ok()) continue;
        // The consistency traffic deferred at write time moves here.
        ++ctx.comm_epoch->consistency_msgs;
        ctx.comm_epoch->consistency_bytes += shipped->bytes;
      }
    }
    ctx.dirty_partitions->clear();
  }

  // (2) Periodic checkpoints (the epoch counter increments in the
  // accounting stage after us, so *ctx.epoch is still the current
  // epoch). Checkpoints run as pool jobs when a pool exists — they fsync
  // independently per backend, so parallelism is free.
  if (opts != nullptr && opts->checkpoint_interval > 0 &&
      (*ctx.epoch + 1) % opts->checkpoint_interval == 0) {
    ctx.replica_data->ForEachBackend([&ctx](StorageBackend* b) {
      if (ctx.io_pool != nullptr) {
        ctx.io_pool->Submit(b, [b] { b->Checkpoint(); });
      } else {
        b->Checkpoint();
      }
    });
  }

  // (3) Group-committed flush: sweep the epoch's unflushed residue into
  // the pool (joining whatever watermark submissions the write path
  // already queued) and drain — one fsync per dirty backend, however
  // many submissions it accumulated.
  if (ctx.io_pool != nullptr) {
    ctx.replica_data->ForEachBackend([&ctx](StorageBackend* b) {
      if (b->UnflushedBytes() > 0) ctx.io_pool->SubmitFlush(b);
    });
    (void)ctx.io_pool->Drain();
  }
}

// --- AccountingStage --------------------------------------------------------

void AccountingStage::Run(EpochContext& ctx) {
  ctx.comm_epoch->transfer_msgs += ctx.last_stats->applied();
  ctx.comm_epoch->transfer_bytes +=
      ctx.last_stats->bytes_replicated + ctx.last_stats->bytes_migrated;
  ctx.comm_total->Accumulate(*ctx.comm_epoch);
  ++*ctx.epoch;
}

}  // namespace skute
