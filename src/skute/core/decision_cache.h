#ifndef SKUTE_CORE_DECISION_CACHE_H_
#define SKUTE_CORE_DECISION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/ring/partition.h"

namespace skute {

/// Per-partition balance-streak flags, computed by RecordBalancesStage
/// while it already holds every vnode in hand, and consumed by
/// ProposeEconomic's dirty check so quiescent partitions skip the vnode
/// registry lookups entirely. Indexed by PartitionId; an entry without
/// kStreakFlagsValid (or past the table) makes the engine fall back to
/// its inline scan, so the table is an accelerator, never a requirement.
inline constexpr uint8_t kStreakFlagsValid = 1;
/// Some replica vnode holds a full negative streak (cost-cutting may act).
inline constexpr uint8_t kStreakNegative = 2;
/// Some replica vnode holds a full positive streak (growth may act).
inline constexpr uint8_t kStreakPositive = 4;

/// Cumulative decision-plane counters, assembled by EconomicPolicy from
/// the CandidateContext and ProposalCache it owns. All values are
/// deterministic for any thread count: they are sums over per-shard work
/// whose content does not depend on the shard-to-thread assignment.
struct DecisionPlaneStats {
  uint64_t epochs_prepared = 0;
  uint64_t select_calls = 0;       ///< Eq. 3 selections answered
  uint64_t candidates_scored = 0;  ///< candidates actually evaluated
  uint64_t full_scan_selects = 0;  ///< exact-fallback full scans
  uint64_t partitions_clean = 0;   ///< economic pass: quiescent, skipped
  uint64_t partitions_dirty = 0;   ///< economic pass: ran the decisions
  uint64_t avail_cache_hits = 0;
  uint64_t avail_cache_misses = 0;
};

/// \brief Cross-epoch cache of per-partition decision inputs — the
/// "dirty partition" half of the decision-plane optimization.
///
/// The expensive per-partition input both proposal passes recompute
/// every epoch is the Eq. 2 availability, a pure function of the replica
/// set and the replica servers' (online, confidence, location) state.
/// Confidence and location are immutable; online flips and membership
/// changes bump Cluster::topology_version(); replica-set changes show in
/// the replicas vector itself. An entry is therefore reusable exactly
/// when (topology_version, replicas) both match — the same idiom
/// ShardPlanCache uses with placement_version, keyed one level finer.
///
/// Thread-safety: PrepareEpoch is called serially (the proposal stage's
/// prepare step) before the shard fan-out; after that each partition id
/// is touched by exactly one shard, so entry accesses are disjoint.
/// Counters are relaxed atomics, fed once per shard from a plain Tally
/// (sums are thread-count independent).
class ProposalCache {
 public:
  /// Plain counters for one caller's share of the work (one decision
  /// shard's), added to the totals once with AddTally.
  struct Tally {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t clean = 0;
    uint64_t dirty = 0;
  };

  ProposalCache() = default;
  ProposalCache(const ProposalCache&) = delete;
  ProposalCache& operator=(const ProposalCache&) = delete;

  /// Grows the entry table to cover ids [0, id_bound) and snapshots the
  /// cluster's topology version for this epoch's validity checks.
  void PrepareEpoch(PartitionId id_bound, uint64_t topology_version);

  /// Eq. 2 availability of `p`'s live replica set, reusing last epoch's
  /// value when the inputs are provably unchanged; always bit-identical
  /// to AvailabilityModel::OfPartition(p, cluster). The hit or miss is
  /// counted into `tally` (required), which the caller adds to the
  /// totals with AddTally.
  double AvailabilityOf(const Partition& p, const Cluster& cluster,
                        Tally* tally);

  /// Adds a caller's tally to the totals (thread-safe).
  void AddTally(const Tally& tally);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t clean_skips() const {
    return clean_.load(std::memory_order_relaxed);
  }
  uint64_t dirty_runs() const {
    return dirty_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    bool valid = false;
    uint64_t topology_version = 0;
    double avail = 0.0;
    std::vector<ReplicaInfo> replicas;  ///< snapshot the value was for
  };

  std::vector<Entry> entries_;
  uint64_t topology_version_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> clean_{0};
  std::atomic<uint64_t> dirty_{0};
};

}  // namespace skute

#endif  // SKUTE_CORE_DECISION_CACHE_H_
