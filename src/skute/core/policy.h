#ifndef SKUTE_CORE_POLICY_H_
#define SKUTE_CORE_POLICY_H_

#include <memory>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/core/decision.h"
#include "skute/core/decision_cache.h"
#include "skute/core/vnode.h"
#include "skute/economy/candidate_context.h"
#include "skute/ring/catalog.h"

namespace skute {

/// \brief Strategy seam of the store: given the epoch's end state, propose
/// the replica-management actions to execute.
///
/// The paper's contribution is EconomicPolicy (virtual economy +
/// Section II-C); the baseline benches swap in a Dynamo-style
/// SuccessorPolicy (skute/baseline) against the same substrate, executor
/// and metrics.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Proposes this epoch's actions. Implementations must not mutate any
  /// store state; the executor re-validates and applies.
  virtual std::vector<Action> ProposeActions(
      const Cluster& cluster, const RingCatalog& catalog,
      const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats) = 0;

  /// \brief Sharded proposal support. When true, the epoch pipeline calls
  /// ProposeActionsForShard once per partition shard — concurrently, from
  /// the worker pool — instead of ProposeActions.
  ///
  /// Contract for implementations: the method must be thread-safe (const,
  /// no hidden mutable state) and its output must be a function of the
  /// shard's contents and order only, so that results do not depend on
  /// the thread count (see ShardPlan's determinism note).
  virtual bool SupportsShardedProposals() const { return false; }

  /// Proposes actions for the partitions of one shard. Only called when
  /// SupportsShardedProposals() is true.
  virtual std::vector<Action> ProposeActionsForShard(
      const Cluster& cluster, const std::vector<const Partition*>& shard,
      const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats) const {
    (void)cluster;
    (void)shard;
    (void)vnodes;
    (void)policies;
    (void)stats;
    return {};
  }

  /// \brief Per-epoch prepare step, called serially by ProposeActionsStage
  /// before the shard fan-out (and only on the sharded path). Policies
  /// build whatever epoch-scoped acceleration state they want here —
  /// EconomicPolicy builds its CandidateContext and primes its
  /// ProposalCache. `streak_flags` is the pipeline's per-partition streak
  /// table from RecordBalancesStage (kStreak* bits; may be null) and is
  /// only valid until EndProposalEpoch. `run_indexed` fans f(i) over the
  /// epoch's worker pool (empty = inline).
  virtual void BeginProposalEpoch(const Cluster& cluster,
                                  const RingCatalog& catalog,
                                  const std::vector<RingPolicy>& policies,
                                  const std::vector<uint8_t>* streak_flags,
                                  const IndexedRunner& run_indexed) {
    (void)cluster;
    (void)catalog;
    (void)policies;
    (void)streak_flags;
    (void)run_indexed;
  }

  /// Called serially after the fan-out completes: drop any borrowed
  /// per-epoch pointers (the streak table dies with the epoch context).
  virtual void EndProposalEpoch() {}

  /// Human-readable policy name for reports.
  virtual const char* name() const = 0;
};

/// \brief The paper's policy: availability repair plus per-vnode
/// net-benefit decisions (Section II-C) via DecisionEngine.
///
/// Owns the decision-plane acceleration state: a per-epoch
/// CandidateContext (rebuilt in BeginProposalEpoch against the fresh
/// board prices) and a cross-epoch ProposalCache (availability reuse +
/// dirty-partition skip). Both are exact — proposals are bit-for-bit
/// those of the uncached engine — and both are disabled per
/// DecisionParams::use_candidate_context / use_proposal_cache.
class EconomicPolicy : public PlacementPolicy {
 public:
  explicit EconomicPolicy(const DecisionParams& params) : engine_(params) {}

  /// Legacy whole-catalog entry point: always the uncached engine path
  /// (no prepare step has run, and per-epoch state may be stale).
  std::vector<Action> ProposeActions(
      const Cluster& cluster, const RingCatalog& catalog,
      const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats) override {
    return engine_.ProposeAll(cluster, catalog, vnodes, policies, stats);
  }

  /// The decision engine's passes are const and read-only over shared
  /// state, so shards can run concurrently.
  bool SupportsShardedProposals() const override { return true; }

  /// Runs the engine over one shard with a per-shard copy of the epoch's
  /// ProposeContext whose plain tally is added to the totals once.
  std::vector<Action> ProposeActionsForShard(
      const Cluster& cluster, const std::vector<const Partition*>& shard,
      const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats) const override;

  void BeginProposalEpoch(const Cluster& cluster, const RingCatalog& catalog,
                          const std::vector<RingPolicy>& policies,
                          const std::vector<uint8_t>* streak_flags,
                          const IndexedRunner& run_indexed) override;

  void EndProposalEpoch() override { pctx_.streak_flags = nullptr; }

  const char* name() const override { return "economic"; }

  const DecisionEngine& engine() const { return engine_; }

  /// Cumulative decision-plane counters (bench/CI observability).
  DecisionPlaneStats decision_stats() const;

 private:
  DecisionEngine engine_;
  /// Per-epoch Eq. 3 snapshot; rebuilt by every BeginProposalEpoch.
  CandidateContext candidates_;
  /// Cross-epoch availability / dirty-partition cache.
  ProposalCache avail_cache_;
  /// Assembled in BeginProposalEpoch (serial), read concurrently by the
  /// shard fan-out; members are null until the first prepare step, so
  /// direct ProposeActionsForShard calls (tests) get the uncached path.
  ProposeContext pctx_;
  uint64_t epochs_prepared_ = 0;
};

}  // namespace skute

#endif  // SKUTE_CORE_POLICY_H_
