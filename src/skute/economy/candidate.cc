#include "skute/economy/candidate.h"

#include <algorithm>

#include "skute/common/hash.h"
#include "skute/topology/location.h"

namespace skute {

void RentSurcharge::Add(ServerId id, double amount) {
  if (id >= by_server_.size()) by_server_.resize(id + 1, 0.0);
  by_server_[id] += amount;
  if (amount < 0.0) negative_.push_back(id);
}

double RentSurcharge::Floor() const {
  double floor = 0.0;
  for (ServerId id : negative_) floor = std::min(floor, by_server_[id]);
  return floor;
}

bool CandidateAdmissible(const Server& server, uint64_t bytes_needed,
                         const CandidateParams& params) {
  if (!server.online()) return false;
  if (server.available_storage() < bytes_needed) return false;
  const uint64_t capacity = server.resources().storage_capacity;
  if (capacity == 0) return false;
  const double after =
      static_cast<double>(server.used_storage() + bytes_needed) /
      static_cast<double>(capacity);
  return after <= params.max_target_storage_utilization;
}

std::vector<ServerId> ReplicaServerSet(const Partition& partition,
                                       ServerId moving_from) {
  std::vector<ServerId> out;
  out.reserve(partition.replica_count());
  for (const ReplicaInfo& r : partition.replicas()) {
    if (r.server == moving_from) continue;
    out.push_back(r.server);
  }
  return out;
}

double ScoreCandidateForSet(const Cluster& cluster,
                            const std::vector<ServerId>& replica_servers,
                            const Server& candidate, const ClientMix* mix,
                            const CandidateParams& params,
                            const RentSurcharge* surcharge) {
  double diversity_sum = 0.0;
  for (ServerId id : replica_servers) {
    const Server* s = cluster.server(id);
    if (s == nullptr || !s->online()) continue;
    diversity_sum += static_cast<double>(
        DiversityValue(s->location(), candidate.location()));
  }
  const double g = mix == nullptr
                       ? 1.0
                       : NormalizedProximity(*mix, candidate.location());
  const double conf = candidate.economics().confidence;
  const double rent = cluster.board().RentOf(candidate.id()) +
                      SurchargeOf(surcharge, candidate.id());
  return params.diversity_weight * g * conf * diversity_sum - rent;
}

Result<CandidateChoice> SelectTargetForSet(
    const Cluster& cluster, const std::vector<ServerId>& replica_servers,
    uint64_t bytes_needed, const ClientMix* mix,
    const CandidateParams& params, const std::vector<ServerId>& exclude,
    const RentSurcharge* surcharge, uint64_t tie_break_salt) {
  CandidateChoice best;
  bool found = false;
  double best_rent = 0.0;
  uint64_t best_salted = 0;

  // Replica sets and exclusions are a handful of ids: one small sorted
  // vector replaces two linear std::find scans per candidate.
  std::vector<ServerId> skip = replica_servers;
  skip.insert(skip.end(), exclude.begin(), exclude.end());
  std::sort(skip.begin(), skip.end());

  for (ServerId id = 0; id < cluster.size(); ++id) {
    const Server* s = cluster.server(id);
    if (s == nullptr) continue;
    if (!CandidateAdmissible(*s, bytes_needed, params)) continue;
    if (std::binary_search(skip.begin(), skip.end(), id)) continue;

    // Inline ScoreCandidateForSet so the rent — shared by the score and
    // the tie-break — is computed once per candidate.
    double diversity_sum = 0.0;
    for (ServerId rid : replica_servers) {
      const Server* rs = cluster.server(rid);
      if (rs == nullptr || !rs->online()) continue;
      diversity_sum += static_cast<double>(
          DiversityValue(rs->location(), s->location()));
    }
    const double g = mix == nullptr
                         ? 1.0
                         : NormalizedProximity(*mix, s->location());
    const double conf = s->economics().confidence;
    const double rent =
        cluster.board().RentOf(id) + SurchargeOf(surcharge, id);
    const double score =
        params.diversity_weight * g * conf * diversity_sum - rent;
    // Salted order decorrelates exact ties across partitions (see the
    // header comment); deterministic for a given salt.
    const uint64_t salted = Mix64(id ^ tie_break_salt);
    if (!found || score > best.score ||
        (score == best.score &&
         (rent < best_rent ||
          (rent == best_rent && salted < best_salted)))) {
      best.server = id;
      best.score = score;
      best_rent = rent;
      best_salted = salted;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("no feasible replica target");
  }
  return best;
}

}  // namespace skute
