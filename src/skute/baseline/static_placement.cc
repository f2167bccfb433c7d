#include "skute/baseline/static_placement.h"

#include <algorithm>

#include "skute/common/hash.h"

namespace skute {

namespace {

struct RingPosition {
  uint64_t position;
  ServerId server;
};

/// The server hash ring: every online server at Mix64(id), sorted.
std::vector<RingPosition> ServerRing(const Cluster& cluster) {
  std::vector<RingPosition> ring;
  ring.reserve(cluster.size());
  for (ServerId id = 0; id < cluster.size(); ++id) {
    const Server* s = cluster.server(id);
    if (s == nullptr || !s->online()) continue;
    ring.push_back(RingPosition{Mix64(id + 1), id});
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingPosition& a, const RingPosition& b) {
              return a.position < b.position;
            });
  return ring;
}

bool SharesRack(const Cluster& cluster, ServerId a, ServerId b) {
  const Server* sa = cluster.server(a);
  const Server* sb = cluster.server(b);
  if (sa == nullptr || sb == nullptr) return false;
  return CommonPrefixLevels(sa->location(), sb->location()) >=
         static_cast<int>(GeoLevel::kRack) + 1;
}

}  // namespace

std::vector<ServerId> SuccessorPolicy::PreferenceList(const Cluster& cluster,
                                                      uint64_t token) const {
  return PreferenceList(cluster, token, options_.replicas);
}

std::vector<ServerId> SuccessorPolicy::PreferenceList(const Cluster& cluster,
                                                      uint64_t token,
                                                      int replicas) const {
  const std::vector<RingPosition> ring = ServerRing(cluster);
  std::vector<ServerId> chosen;
  if (ring.empty()) return chosen;

  const auto start = std::lower_bound(
      ring.begin(), ring.end(), token,
      [](const RingPosition& p, uint64_t t) { return p.position < t; });
  const size_t begin_idx = start == ring.end()
                               ? 0
                               : static_cast<size_t>(start - ring.begin());

  // First pass honours rack-awareness; if the topology cannot satisfy it
  // (tiny clusters), a second pass fills up without the constraint.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t step = 0;
         step < ring.size() &&
         chosen.size() < static_cast<size_t>(replicas);
         ++step) {
      const ServerId candidate =
          ring[(begin_idx + step) % ring.size()].server;
      if (std::find(chosen.begin(), chosen.end(), candidate) !=
          chosen.end()) {
        continue;
      }
      if (pass == 0 && options_.rack_aware) {
        bool conflict = false;
        for (ServerId c : chosen) {
          if (SharesRack(cluster, candidate, c)) {
            conflict = true;
            break;
          }
        }
        if (conflict) continue;
      }
      chosen.push_back(candidate);
    }
    if (chosen.size() >= static_cast<size_t>(replicas)) break;
  }
  return chosen;
}

std::vector<Action> SuccessorPolicy::ProposeActions(
    const Cluster& cluster, const RingCatalog& catalog,
    const VNodeRegistry& vnodes, const std::vector<RingPolicy>& policies,
    const PartitionStatsTable& stats) {
  (void)vnodes;
  (void)policies;
  (void)stats;
  std::vector<Action> actions;
  catalog.ForEachPartition([&](const Partition* p) {
    const std::vector<ServerId> desired = PreferenceList(
        cluster, p->range().begin, options_.ReplicasFor(p->ring()));

    // Missing replicas: replicate from any current holder.
    for (ServerId want : desired) {
      if (p->HasReplicaOn(want)) continue;
      Action a;
      a.type = ActionType::kReplicate;
      a.partition = p->id();
      a.ring = p->ring();
      a.target = want;
      a.reason = "baseline: preference-list repair";
      actions.push_back(a);
    }
    // Excess replicas (e.g. after membership changes): retire them, but
    // never below the desired count — the executor's replica_count guard
    // plus proposal order keeps the window safe.
    for (const ReplicaInfo& r : p->replicas()) {
      if (std::find(desired.begin(), desired.end(), r.server) !=
          desired.end()) {
        continue;
      }
      Action a;
      a.type = ActionType::kSuicide;
      a.partition = p->id();
      a.ring = p->ring();
      a.vnode = r.vnode;
      a.source = r.server;
      a.reason = "baseline: not in preference list";
      actions.push_back(a);
    }
  });
  return actions;
}

}  // namespace skute
