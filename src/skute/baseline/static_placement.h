#ifndef SKUTE_BASELINE_STATIC_PLACEMENT_H_
#define SKUTE_BASELINE_STATIC_PLACEMENT_H_

#include <vector>

#include "skute/core/policy.h"

namespace skute {

/// Options of the static comparator.
struct SuccessorPolicyOptions {
  /// Fixed replica count per partition (Dynamo's N), used for rings not
  /// covered by replicas_per_ring.
  int replicas = 3;
  /// Per-ring replica counts (indexed by RingId); lets the baseline match
  /// the paper's differentiated 2/3/4 setup with fixed counts.
  std::vector<int> replicas_per_ring;
  /// Skip candidate servers that share a rack with an already-chosen
  /// replica (the common "rack-aware" refinement; without it the baseline
  /// loses whole partitions to single rack failures).
  bool rack_aware = true;

  int ReplicasFor(RingId ring) const {
    if (ring < replicas_per_ring.size()) return replicas_per_ring[ring];
    return replicas;
  }
};

/// \brief Dynamo-style baseline: each partition keeps exactly N replicas
/// on the first N (optionally rack-distinct) online servers clockwise from
/// its token on a server hash ring. No economics, no load adaptation —
/// replicas move only when membership changes.
///
/// Implements the same PlacementPolicy seam as the paper's EconomicPolicy,
/// so the ablation benches drive both against identical substrates,
/// workloads and metrics. Rings driven by this policy should be attached
/// with SlaLevel{min_availability = 0} — replica management here is count-
/// based, not threshold-based.
class SuccessorPolicy : public PlacementPolicy {
 public:
  explicit SuccessorPolicy(const SuccessorPolicyOptions& options)
      : options_(options) {}

  std::vector<Action> ProposeActions(
      const Cluster& cluster, const RingCatalog& catalog,
      const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
      const PartitionStatsTable& stats) override;

  const char* name() const override { return "static-successor"; }

  /// The preference list for a token: the first `replicas` feasible
  /// servers clockwise from `token` on the server hash ring. Exposed for
  /// tests.
  std::vector<ServerId> PreferenceList(const Cluster& cluster,
                                       uint64_t token) const;
  std::vector<ServerId> PreferenceList(const Cluster& cluster,
                                       uint64_t token, int replicas) const;

 private:
  SuccessorPolicyOptions options_;
};

}  // namespace skute

#endif  // SKUTE_BASELINE_STATIC_PLACEMENT_H_
