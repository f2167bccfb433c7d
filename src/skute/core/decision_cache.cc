#include "skute/core/decision_cache.h"

#include "skute/economy/availability.h"

namespace skute {

namespace {

bool SameReplicas(const std::vector<ReplicaInfo>& a,
                  const std::vector<ReplicaInfo>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].server != b[i].server || a[i].vnode != b[i].vnode ||
        a[i].created_epoch != b[i].created_epoch) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ProposalCache::PrepareEpoch(PartitionId id_bound,
                                 uint64_t topology_version) {
  if (entries_.size() < id_bound) {
    entries_.resize(id_bound);
  }
  topology_version_ = topology_version;
}

double ProposalCache::AvailabilityOf(const Partition& p,
                                     const Cluster& cluster, Tally* tally) {
  if (p.id() >= entries_.size()) {
    // Partition created after PrepareEpoch — cannot happen mid-pipeline,
    // but direct engine callers may race a split; stay exact, uncached.
    ++tally->misses;
    return AvailabilityModel::OfPartition(p, cluster);
  }
  Entry& e = entries_[p.id()];
  if (e.valid && e.topology_version == topology_version_ &&
      SameReplicas(e.replicas, p.replicas())) {
    ++tally->hits;
    return e.avail;
  }
  ++tally->misses;
  e.avail = AvailabilityModel::OfPartition(p, cluster);
  e.topology_version = topology_version_;
  e.replicas = p.replicas();
  e.valid = true;
  return e.avail;
}

void ProposalCache::AddTally(const Tally& tally) {
  hits_.fetch_add(tally.hits, std::memory_order_relaxed);
  misses_.fetch_add(tally.misses, std::memory_order_relaxed);
  clean_.fetch_add(tally.clean, std::memory_order_relaxed);
  dirty_.fetch_add(tally.dirty, std::memory_order_relaxed);
}

}  // namespace skute
