#include "skute/core/policy.h"

#include <algorithm>

namespace skute {

void EconomicPolicy::BeginProposalEpoch(
    const Cluster& cluster, const RingCatalog& catalog,
    const std::vector<RingPolicy>& policies,
    const std::vector<uint8_t>* streak_flags,
    const IndexedRunner& run_indexed) {
  const DecisionParams& params = engine_.params();
  ++epochs_prepared_;
  pctx_ = ProposeContext();

  if (params.use_candidate_context) {
    // Distinct client mixes this epoch's selections can see: every ring
    // policy's mix, plus the uniform (nullptr) mix repair/migration use
    // for rings without geographic information.
    std::vector<const ClientMix*> mixes;
    mixes.push_back(nullptr);
    for (const RingPolicy& p : policies) {
      if (p.mix != nullptr &&
          std::find(mixes.begin(), mixes.end(), p.mix) == mixes.end()) {
        mixes.push_back(p.mix);
      }
    }
    candidates_.Build(cluster, params.candidate, mixes, run_indexed);
    pctx_.candidates = &candidates_;
  }

  if (params.use_proposal_cache) {
    avail_cache_.PrepareEpoch(catalog.partition_id_bound(),
                              cluster.topology_version());
    pctx_.avail_cache = &avail_cache_;
    pctx_.streak_flags = streak_flags;
  }
}

std::vector<Action> EconomicPolicy::ProposeActionsForShard(
    const Cluster& cluster, const std::vector<const Partition*>& shard,
    const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
    const PartitionStatsTable& stats) const {
  DecisionTally tally;
  ProposeContext pctx = pctx_;
  pctx.tally = &tally;
  std::vector<Action> actions = engine_.ProposeForPartitions(
      cluster, shard, vnodes, policies, stats, &pctx);
  pctx.FlushTally();
  return actions;
}

DecisionPlaneStats EconomicPolicy::decision_stats() const {
  DecisionPlaneStats s;
  s.epochs_prepared = epochs_prepared_;
  const CandidateContext::Counters& c = candidates_.counters();
  s.select_calls = c.select_calls.load(std::memory_order_relaxed);
  s.candidates_scored =
      c.candidates_scored.load(std::memory_order_relaxed);
  s.full_scan_selects = c.full_scans.load(std::memory_order_relaxed);
  s.partitions_clean = avail_cache_.clean_skips();
  s.partitions_dirty = avail_cache_.dirty_runs();
  s.avail_cache_hits = avail_cache_.hits();
  s.avail_cache_misses = avail_cache_.misses();
  return s;
}

}  // namespace skute
