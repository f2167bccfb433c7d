#ifndef SKUTE_CORE_DECISION_H_
#define SKUTE_CORE_DECISION_H_

#include <algorithm>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/core/decision_cache.h"
#include "skute/core/vnode.h"
#include "skute/economy/balance.h"
#include "skute/economy/candidate.h"
#include "skute/economy/candidate_context.h"
#include "skute/economy/pricing.h"
#include "skute/ring/catalog.h"

namespace skute {

/// What a virtual-node agent decided to do at the end of an epoch
/// (Section II-C: replicate, migrate, suicide, or nothing).
enum class ActionType { kNone, kReplicate, kMigrate, kSuicide };

/// One proposed action. Proposals are generated against the board snapshot
/// and re-validated against live state when executed (see ActionExecutor).
struct Action {
  ActionType type = ActionType::kNone;
  PartitionId partition = kInvalidPartition;
  RingId ring = 0;
  /// Acting vnode: the migrating/suiciding replica, or the replication
  /// initiator (kInvalidVNode for repair replications initiated by the
  /// partition's primary when that vnode is gone).
  VNodeId vnode = kInvalidVNode;
  /// Replication source / migration origin.
  ServerId source = kInvalidServer;
  /// Replication / migration destination.
  ServerId target = kInvalidServer;
  /// Eq. 3 score of the chosen target (diagnostics).
  double score = 0.0;
  /// Why the action was proposed (static string, diagnostics).
  const char* reason = "";
};

/// Per-ring policy the decision passes evaluate against.
struct RingPolicy {
  /// Minimum Eq. 2 availability (the SLA's th).
  double min_availability = 0.0;
  /// Client geo-distribution of the ring's application; nullptr = uniform.
  const ClientMix* mix = nullptr;
};

/// Per-partition traffic snapshot for the epoch being closed.
struct PartitionEpochStats {
  uint64_t queries = 0;      // across all replicas
  uint64_t write_bytes = 0;  // inserted/updated bytes (consistency cost)
};

/// \brief The epoch's PartitionEpochStats, indexed by PartitionId.
///
/// Partition ids are dense and never reused, so a row per id is a load
/// instead of a hash probe. Writes grow the table; a row past the end
/// reads as no traffic. Clear() zero-fills in place, so the table is
/// allocated once, not once per epoch.
class PartitionStatsTable {
 public:
  PartitionEpochStats& operator[](PartitionId id) {
    if (id >= rows_.size()) rows_.resize(id + 1);
    return rows_[id];
  }

  const PartitionEpochStats& Get(PartitionId id) const {
    static const PartitionEpochStats kNoTraffic;
    return id < rows_.size() ? rows_[id] : kNoTraffic;
  }

  void Clear() {
    std::fill(rows_.begin(), rows_.end(), PartitionEpochStats());
  }

 private:
  std::vector<PartitionEpochStats> rows_;
};

/// Tunables of the Section II-C decision process.
struct DecisionParams {
  /// The paper's f: consecutive negative (positive) epochs before a vnode
  /// migrates/suicides (replicates).
  int balance_window = 4;
  CandidateParams candidate;
  UtilityParams utility;
  ConsistencyCostModel consistency;
  /// A migration target must be at least this much cheaper than the
  /// current server (hysteresis against rent-chasing churn). Must stay
  /// below the rent spread Eq. 1's alpha produces between a full and an
  /// average server, or storage-pressure migration stalls (see
  /// PricingParams::alpha).
  double migration_savings_threshold = 0.02;
  /// Repair may propose several replications per partition per epoch to
  /// recover from multi-replica losses quickly; bandwidth still throttles.
  int max_repair_steps_per_epoch = 4;
  /// Hard cap on replicas per partition; 0 = no explicit cap (server count
  /// and profitability cap it naturally).
  size_t max_replicas_per_partition = 0;
  /// The paper's stabilization rule: floor a vnode's utility at the
  /// cluster-wide minimum rent so unpopular vnodes stop migrating once
  /// they reach the cheapest server. Off only for the ablation bench.
  bool utility_floor = true;
  /// Rent surcharge added per placement already proposed onto a target
  /// within the same epoch (see RentSurcharge in candidate.h). Models the
  /// serialized admission a real target server would impose; without it,
  /// stale identical board prices send every agent to the same server.
  double pending_placement_penalty = 0.25;
  /// Decision-plane acceleration (both layers are bit-for-bit identical
  /// to the uncached path — the flags exist for the equivalence tests
  /// and the ablation bench, not as behavior knobs).
  /// Per-epoch CandidateContext for Eq. 3 target selection.
  bool use_candidate_context = true;
  /// Cross-epoch ProposalCache: availability reuse + dirty-partition
  /// skip in the economic pass.
  bool use_proposal_cache = true;
};

/// Per-shard decision counters, carried by ProposeContext::tally.
struct DecisionTally {
  SelectTally select;
  ProposalCache::Tally cache;
};

/// \brief Optional per-epoch acceleration state threaded through the
/// decision passes. The accelerators may be null; a null member (or a
/// null context pointer, the default everywhere) selects the original
/// full-recompute path. EconomicPolicy assembles one per epoch in its
/// BeginProposalEpoch prepare step.
struct ProposeContext {
  /// Per-epoch Eq. 3 scoring snapshot (exact; see candidate_context.h).
  const CandidateContext* candidates = nullptr;
  /// Cross-epoch availability/dirty-partition cache (exact; see
  /// decision_cache.h).
  ProposalCache* avail_cache = nullptr;
  /// Per-partition streak flags from RecordBalancesStage (kStreak* bits,
  /// indexed by PartitionId); entries without kStreakFlagsValid fall
  /// back to the inline vnode scan.
  const std::vector<uint8_t>* streak_flags = nullptr;
  /// Plain counters for one caller's share of the decision work (one
  /// shard's, see EconomicPolicy::ProposeActionsForShard). Required when
  /// `candidates` or `avail_cache` is set; FlushTally adds it to their
  /// shared totals.
  DecisionTally* tally = nullptr;

  /// Adds `*tally` to the totals of `candidates` and `avail_cache` and
  /// zeroes it.
  void FlushTally() const;
};

/// \brief Generates the epoch's proposed actions. Stateless except for
/// parameters: both passes read the cluster/catalog and write nothing.
class DecisionEngine {
 public:
  explicit DecisionEngine(const DecisionParams& params) : params_(params) {}

  const DecisionParams& params() const { return params_; }

  /// \brief Availability repair (Section II-C first step): for every
  /// partition whose Eq. 2 availability is below its ring's th, propose
  /// replications (Eq. 3 targets) until the *hypothetical* availability
  /// reaches th or max_repair_steps_per_epoch is hit.
  ///
  /// Initiated once per partition (by its primary replica — the live
  /// replica with the lowest server id) rather than by every replica, to
  /// model a deterministic leader and avoid a thundering herd.
  std::vector<Action> RepairPass(
      const Cluster& cluster, const RingCatalog& catalog,
      const std::vector<RingPolicy>& policies,
      RentSurcharge* surcharge = nullptr,
      const ProposeContext* pctx = nullptr) const;

  /// \brief Economic decisions (Section II-C second step), at most one
  /// action per partition per epoch:
  ///  - a vnode with `f` negative balances suicides if the partition stays
  ///    at/above th without it, else migrates to a cheaper server;
  ///  - otherwise, if some vnode has `f` positive balances and the
  ///    partition's popularity covers the new rent plus consistency cost,
  ///    the partition replicates (Eq. 3 target).
  std::vector<Action> EconomicPass(
      const Cluster& cluster, const RingCatalog& catalog,
      const VNodeRegistry& vnodes,
      const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats,
      RentSurcharge* surcharge = nullptr,
      const ProposeContext* pctx = nullptr) const;

  /// Both passes with a shared per-epoch rent surcharge (what
  /// EconomicPolicy runs every epoch).
  std::vector<Action> ProposeAll(const Cluster& cluster,
                                 const RingCatalog& catalog,
                                 const VNodeRegistry& vnodes,
                                 const std::vector<RingPolicy>& policies,
                                 const PartitionStatsTable& stats,
                                 const ProposeContext* pctx = nullptr) const;

  /// \brief Both passes restricted to an explicit partition list — one
  /// decision-plane shard — with its own rent-surcharge ledger.
  ///
  /// Called concurrently from the epoch pipeline's worker pool, one call
  /// per shard; everything it touches is read-only shared state plus
  /// shard-local accumulators, so calls are thread-safe. A shard only
  /// surcharges its *own* proposals: cross-shard pile-ups onto one cheap
  /// server are possible within an epoch (as they are between real
  /// uncoordinated agents) and are arbitrated by the executor's
  /// storage/bandwidth re-validation. With a single shard this is exactly
  /// ProposeAll.
  std::vector<Action> ProposeForPartitions(
      const Cluster& cluster,
      const std::vector<const Partition*>& partitions,
      const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats,
      const ProposeContext* pctx = nullptr) const;

 private:
  /// Repair leg for one partition (appends 0..max_repair_steps actions).
  void ProposeRepair(const Cluster& cluster, const Partition& partition,
                     const std::vector<RingPolicy>& policies,
                     RentSurcharge* surcharge, std::vector<Action>* actions,
                     const ProposeContext* pctx) const;

  /// Economic leg for one partition (appends at most one action).
  void ProposeEconomic(const Cluster& cluster, const Partition& partition,
                       const VNodeRegistry& vnodes,
                       const std::vector<RingPolicy>& policies,
                       const PartitionStatsTable& stats,
                       RentSurcharge* surcharge,
                       std::vector<Action>* actions,
                       const ProposeContext* pctx) const;

  /// Eq. 3 selection: through the pctx's CandidateContext when present
  /// (exact pruned shortlist), the full SelectTargetForSet scan
  /// otherwise.
  Result<CandidateChoice> SelectTarget(
      const Cluster& cluster, const std::vector<ServerId>& replica_servers,
      uint64_t bytes_needed, const ClientMix* mix,
      const std::vector<ServerId>& exclude, const RentSurcharge* surcharge,
      uint64_t tie_break_salt, const ProposeContext* pctx) const;

  Action DecideForVNode(const Cluster& cluster, const Partition& partition,
                        const VirtualNode& vnode, const RingPolicy& policy,
                        double avail_now, const RentSurcharge* surcharge,
                        const ProposeContext* pctx) const;

  Action MaybeReplicate(const Cluster& cluster, const Partition& partition,
                        const RingPolicy& policy,
                        const PartitionEpochStats& stats,
                        const RentSurcharge* surcharge,
                        const ProposeContext* pctx) const;

  DecisionParams params_;
};

}  // namespace skute

#endif  // SKUTE_CORE_DECISION_H_
