#ifndef SKUTE_ECONOMY_AVAILABILITY_H_
#define SKUTE_ECONOMY_AVAILABILITY_H_

#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/ring/partition.h"

namespace skute {

/// \brief Equation 2 of the paper: the availability proxy of a partition is
/// the confidence-weighted pairwise geographic diversity of the servers
/// hosting its replicas:
///
///   avail_i = sum_{a < b} conf_a * conf_b * diversity(s_a, s_b)
///
/// A single replica scores 0 (no pair), identical placement scores 0, and
/// k replicas on k different continents score C(k,2) * 63 * conf^2.
class AvailabilityModel {
 public:
  /// One pair's contribution: conf_a * conf_b * diversity(loc_a, loc_b).
  static double PairTerm(const Server& a, const Server& b);

  /// Eq. 2 over an explicit server set. Offline servers contribute nothing
  /// (their replicas are gone).
  static double Of(const std::vector<const Server*>& servers);

  /// Eq. 2 for a partition's current replica set, resolved via `cluster`.
  /// Replicas on offline/unknown servers are skipped.
  static double OfPartition(const Partition& partition,
                            const Cluster& cluster);

  /// Eq. 2 for the partition's replica set with the replica on
  /// `without` removed — the suicide check of Section II-C.
  static double OfPartitionWithout(const Partition& partition,
                                   const Cluster& cluster, ServerId without);

  /// Eq. 2 over an explicit server-id set (offline/unknown ids skipped).
  static double OfServerIds(const Cluster& cluster,
                            const std::vector<ServerId>& ids);

  /// Eq. 2 over `ids` plus one extra server id.
  static double OfServerIdsWith(const Cluster& cluster,
                                const std::vector<ServerId>& ids,
                                ServerId extra);

  /// Best achievable Eq. 2 value with `k` replicas of confidence
  /// `confidence` (pairwise different continents): C(k,2) * 63 * conf^2.
  static double MaxForReplicas(int k, double confidence);

  /// \brief SLA threshold that *requires* k replicas (see DESIGN.md):
  ///   th(k) = 63 * conf^2 * (C(k-1,2) + margin),  margin in (0, 1].
  ///
  /// Even k-1 perfectly dispersed replicas stay below th, while k replicas
  /// reach it with reasonable dispersion. Requires k >= 2 (a threshold of
  /// 0 would be satisfied by one replica).
  static double ThresholdForReplicas(int k, double confidence,
                                     double margin = 0.5);

 private:
  static double OfServers(const std::vector<const Server*>& servers);
};

}  // namespace skute

#endif  // SKUTE_ECONOMY_AVAILABILITY_H_
