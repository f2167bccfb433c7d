#ifndef SKUTE_ECONOMY_CANDIDATE_CONTEXT_H_
#define SKUTE_ECONOMY_CANDIDATE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/common/result.h"
#include "skute/economy/candidate.h"
#include "skute/economy/proximity.h"

namespace skute {

/// Fans fn(i) for every i in [0, count) over a worker pool; an empty
/// function means "run inline". The epoch pipeline passes its
/// EpochContext::RunIndexed so per-epoch prepare work parallelizes with
/// the same determinism contract as the stages themselves.
using IndexedRunner =
    std::function<void(size_t count, const std::function<void(size_t)>& fn)>;

/// Plain Eq. 3 scan counters for one caller's share of the selects (one
/// decision shard's), added to a CandidateContext's totals once with
/// AddTally instead of through shared atomics on every select.
struct SelectTally {
  uint64_t select_calls = 0;
  uint64_t candidates_scored = 0;
  uint64_t full_scans = 0;
};

/// \brief Per-epoch snapshot of everything Eq. 3's candidate scan reads
/// that does not depend on the partition being placed.
///
/// `SelectTargetForSet` rescans every server per call, recomputing the
/// proximity factor g, the confidence and the board rent from scratch —
/// but within one epoch all of these are fixed: prices publish once at
/// BeginEpoch, and membership/locations never change during the propose
/// stage. Build() computes, once per epoch and per distinct client mix,
/// the per-server gain
///
///   gain_j = diversity_weight * g_j * conf_j
///
/// (the exact left-associated partial product of the Eq. 3 score, so
/// `gain_j * diversity_sum - rent_j` is bit-for-bit the original
/// expression) and sorts candidates by the single-replica score bound
///
///   key_j = kMaxDiversity * gain_j - rent_j.
///
/// Select() then walks that order and stops as soon as no remaining
/// candidate's upper bound can beat the incumbent: with L live replicas
/// the diversity sum is at most kMaxDiversity * L, so
///
///   score_j <= kMaxDiversity * max(L-1, 0) * max_gain(j..) + key_j
///              - min(0, min surcharge)
///
/// bounds every candidate at or after position j. The incumbent
/// comparison uses the exact total order of SelectTargetForSet (score,
/// then rent, then salted id — strict, since Mix64 is bijective), so the
/// winner is order-independent and the pruned scan returns the identical
/// (server, score) pair. The bound check carries a relative slack margin
/// many orders of magnitude above double rounding error, so floating-
/// point rounding can never prune the true winner — the cost is scanning
/// a handful of extra frontier candidates.
///
/// The dense per-shard RentSurcharge ledger and the admissibility
/// check against `bytes_needed` are evaluated exactly per call (rents
/// and storage are read live; both are constant during the propose
/// stage). Anything the snapshot cannot prove exact — an unknown mix, a
/// negative/non-finite gain, a membership count mismatch — falls back to
/// the full SelectTargetForSet scan, so Select() is *always* exact.
class CandidateContext {
 public:
  /// Cumulative scan counters (relaxed atomics: totals are sums over
  /// per-shard tallies whose content is identical for any thread count,
  /// so the values are deterministic). Never reset by Build(), so they
  /// count across the context's whole lifetime.
  struct Counters {
    std::atomic<uint64_t> select_calls{0};
    std::atomic<uint64_t> candidates_scored{0};
    std::atomic<uint64_t> full_scans{0};
  };

  CandidateContext() = default;
  CandidateContext(const CandidateContext&) = delete;
  CandidateContext& operator=(const CandidateContext&) = delete;

  /// Builds the epoch snapshot over `cluster` for the given distinct
  /// client mixes (include nullptr for the uniform mix — callers pass
  /// every RingPolicy::mix they will select against). The borrowed
  /// cluster and mix pointers must stay valid and unmodified until the
  /// next Build(). `run_indexed` fans the per-(mix, server) proximity
  /// work out; pass {} to build inline.
  void Build(const Cluster& cluster, const CandidateParams& params,
             const std::vector<const ClientMix*>& mixes,
             const IndexedRunner& run_indexed = {});

  /// Exact drop-in for SelectTargetForSet over the Build()-time cluster:
  /// same winner, same score, bit for bit (see class comment). The call
  /// is counted into `tally` (required), which the caller adds to the
  /// totals with AddTally.
  Result<CandidateChoice> Select(const std::vector<ServerId>& replica_servers,
                                 uint64_t bytes_needed, const ClientMix* mix,
                                 const std::vector<ServerId>& exclude,
                                 const RentSurcharge* surcharge,
                                 uint64_t tie_break_salt,
                                 SelectTally* tally) const;

  /// Adds a caller's tally to the totals (thread-safe).
  void AddTally(const SelectTally& tally) const;

  bool ready() const { return cluster_ != nullptr; }
  const Counters& counters() const { return counters_; }

 private:
  /// One candidate ordering: the servers that can pass admission
  /// (online, capacity > 0), sorted by descending key (id ascending on
  /// ties), with the suffix-max gain for the Select() bound.
  struct MixOrder {
    const ClientMix* mix = nullptr;
    std::vector<ServerId> order;
    std::vector<double> gain;             // aligned with `order`
    std::vector<double> key;              // aligned with `order`
    std::vector<double> suffix_max_gain;  // max gain over order[i..]
    /// False when some gain is negative or non-finite — the bound
    /// algebra needs gain >= 0, so Select() falls back to a full scan.
    bool safe = true;
  };

  const MixOrder* FindOrder(const ClientMix* mix) const;

  const Cluster* cluster_ = nullptr;
  CandidateParams params_;
  size_t server_count_ = 0;
  std::vector<MixOrder> orders_;
  mutable Counters counters_;
};

}  // namespace skute

#endif  // SKUTE_ECONOMY_CANDIDATE_CONTEXT_H_
