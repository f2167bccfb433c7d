#ifndef SKUTE_ECONOMY_CANDIDATE_H_
#define SKUTE_ECONOMY_CANDIDATE_H_

#include <cstdint>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/common/result.h"
#include "skute/economy/proximity.h"
#include "skute/ring/partition.h"

namespace skute {

/// Tunables of the Eq. 3 candidate scan.
struct CandidateParams {
  /// Scales the diversity term against the rent term. The defaults put
  /// per-epoch rents in the 0.1..2 range while pairwise diversity sums
  /// reach into the hundreds, so with weight 1.0 availability dominates and
  /// rent breaks ties among equally diverse candidates — the paper's
  /// "availability is increased as much as possible at the minimum cost".
  double diversity_weight = 1.0;
  /// Admission control: a candidate is infeasible when accepting the
  /// bytes would push its storage utilization above this fraction.
  /// Keeps placement from cramming servers to 100% and leaves headroom
  /// for organic growth of already-hosted partitions (Fig. 5 depends on
  /// it: insert failures must not appear until the *cluster* is nearly
  /// full, not one unlucky server).
  double max_target_storage_utilization = 0.95;
};

/// \brief Per-epoch surcharge on candidate rents, indexed by server. The
/// decision passes use it to account for placements they have already
/// proposed in the same epoch before the board reprices: without it, every
/// agent sees identical stale prices and piles onto the one cheapest
/// server (the thundering-herd the paper's serialized server-side admission
/// would absorb).
///
/// Each decision shard owns one ledger. It is dense so that the Eq. 3 scan
/// reads a candidate's surcharge with one load.
class RentSurcharge {
 public:
  /// Adds `amount` to `id`'s surcharge.
  void Add(ServerId id, double amount);

  /// Surcharge on `id`'s rent; 0 for a server never charged.
  double Of(ServerId id) const {
    return id < by_server_.size() ? by_server_[id] : 0.0;
  }

  /// min(0, smallest surcharge): how far the ledger can lift a score above
  /// its rent-only value.
  double Floor() const;

 private:
  std::vector<double> by_server_;  // grown on demand
  /// Servers that ever took a negative charge; every other entry is >= 0
  /// or NaN and cannot lower the floor.
  std::vector<ServerId> negative_;
};

/// Outcome of the Eq. 3 scan: the winning server and its score.
struct CandidateChoice {
  ServerId server = kInvalidServer;
  double score = 0.0;
};

/// Surcharge on `id`'s rent this epoch; 0 when absent or no ledger.
inline double SurchargeOf(const RentSurcharge* surcharge, ServerId id) {
  return surcharge == nullptr ? 0.0 : surcharge->Of(id);
}

/// Admission check of the Eq. 3 scan: online, enough free storage, and
/// the post-placement utilization stays under the pressure cap.
bool CandidateAdmissible(const Server& server, uint64_t bytes_needed,
                         const CandidateParams& params);

/// \brief Scores one candidate server against an explicit replica set (the
/// inner expression of Eq. 3):
///
///   g_j * conf_j * sum_k diversity(s_k, s_j) - c_j
///
/// Servers in `replica_servers` that are offline/unknown contribute no
/// diversity (their replicas are effectively gone). `mix` may be nullptr
/// (uniform clients, g = 1). Rent comes from the cluster's board.
double ScoreCandidateForSet(const Cluster& cluster,
                            const std::vector<ServerId>& replica_servers,
                            const Server& candidate, const ClientMix* mix,
                            const CandidateParams& params,
                            const RentSurcharge* surcharge = nullptr);

/// \brief Equation 3: chooses the feasible server maximizing
/// ScoreCandidateForSet. Feasible = online, not already in
/// `replica_servers`, not in `exclude`, and with at least `bytes_needed`
/// free storage (plus the utilization cap).
///
/// Ties break toward the cheaper rent, then by a salted hash of the
/// server id. The salt (callers pass the partition id) gives every
/// partition its own preference order among *equally priced* servers;
/// without it, all partitions repaired in the same epoch would choose
/// near-identical replica sets, and one multi-server failure would then
/// wipe correlated groups of partitions (observed: ~10x the independent
/// loss rate in the Fig. 3 scenario).
///
/// Returns NotFound when no feasible candidate exists.
Result<CandidateChoice> SelectTargetForSet(
    const Cluster& cluster, const std::vector<ServerId>& replica_servers,
    uint64_t bytes_needed, const ClientMix* mix,
    const CandidateParams& params,
    const std::vector<ServerId>& exclude = {},
    const RentSurcharge* surcharge = nullptr,
    uint64_t tie_break_salt = 0);

/// The replica servers of a partition as a plain id vector, minus
/// `moving_from` when given.
std::vector<ServerId> ReplicaServerSet(const Partition& partition,
                                       ServerId moving_from = kInvalidServer);

}  // namespace skute

#endif  // SKUTE_ECONOMY_CANDIDATE_H_
