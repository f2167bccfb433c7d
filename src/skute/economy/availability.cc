#include "skute/economy/availability.h"

#include "skute/topology/location.h"

namespace skute {

double AvailabilityModel::PairTerm(const Server& a, const Server& b) {
  return a.economics().confidence * b.economics().confidence *
         static_cast<double>(DiversityValue(a.location(), b.location()));
}

double AvailabilityModel::OfServers(
    const std::vector<const Server*>& servers) {
  double total = 0.0;
  for (size_t i = 0; i < servers.size(); ++i) {
    for (size_t j = i + 1; j < servers.size(); ++j) {
      total += PairTerm(*servers[i], *servers[j]);
    }
  }
  return total;
}

double AvailabilityModel::Of(const std::vector<const Server*>& servers) {
  std::vector<const Server*> online;
  online.reserve(servers.size());
  for (const Server* s : servers) {
    if (s != nullptr && s->online()) online.push_back(s);
  }
  return OfServers(online);
}

double AvailabilityModel::OfPartition(const Partition& partition,
                                      const Cluster& cluster) {
  return OfPartitionWithout(partition, cluster, kInvalidServer);
}

double AvailabilityModel::OfPartitionWithout(const Partition& partition,
                                             const Cluster& cluster,
                                             ServerId without) {
  std::vector<const Server*> servers;
  servers.reserve(partition.replica_count());
  for (const ReplicaInfo& r : partition.replicas()) {
    if (r.server == without) continue;
    const Server* s = cluster.server(r.server);
    if (s != nullptr && s->online()) servers.push_back(s);
  }
  return OfServers(servers);
}

double AvailabilityModel::OfServerIds(const Cluster& cluster,
                                      const std::vector<ServerId>& ids) {
  std::vector<const Server*> servers;
  servers.reserve(ids.size());
  for (ServerId id : ids) {
    const Server* s = cluster.server(id);
    if (s != nullptr && s->online()) servers.push_back(s);
  }
  return OfServers(servers);
}

double AvailabilityModel::OfServerIdsWith(const Cluster& cluster,
                                          const std::vector<ServerId>& ids,
                                          ServerId extra) {
  std::vector<ServerId> with = ids;
  with.push_back(extra);
  return OfServerIds(cluster, with);
}

double AvailabilityModel::MaxForReplicas(int k, double confidence) {
  if (k < 2) return 0.0;
  const double pairs = static_cast<double>(k) * (k - 1) / 2.0;
  return pairs * static_cast<double>(kMaxDiversity) * confidence *
         confidence;
}

double AvailabilityModel::ThresholdForReplicas(int k, double confidence,
                                               double margin) {
  if (k < 2) k = 2;
  const double prev_pairs = static_cast<double>(k - 1) * (k - 2) / 2.0;
  return static_cast<double>(kMaxDiversity) * confidence * confidence *
         (prev_pairs + margin);
}

}  // namespace skute
