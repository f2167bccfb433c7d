#ifndef SKUTE_CORE_VNODE_H_
#define SKUTE_CORE_VNODE_H_

#include <deque>

#include "skute/common/result.h"
#include "skute/common/units.h"
#include "skute/economy/balance.h"
#include "skute/ring/partition.h"
#include "skute/ring/ring.h"

namespace skute {

/// \brief One virtual node: the autonomous agent managing one replica of
/// one partition on one server (Section II of the paper).
///
/// A vnode's mutable state is its per-epoch query counters and its balance
/// history; everything else (placement) lives in the partition's replica
/// set, which the vnode mirrors via `server`.
struct VirtualNode {
  VNodeId id = kInvalidVNode;
  PartitionId partition = kInvalidPartition;
  RingId ring = 0;
  ServerId server = kInvalidServer;
  Epoch created = 0;

  /// Queries routed to this replica this epoch, and the subset actually
  /// served within the hosting server's capacity (utility accrues only on
  /// served queries).
  uint64_t queries_routed = 0;
  uint64_t queries_served = 0;

  /// Eq. 5 history (window = the decision hysteresis f).
  BalanceTracker balance;

  VirtualNode(VNodeId id_in, PartitionId partition_in, RingId ring_in,
              ServerId server_in, Epoch created_in, int balance_window)
      : id(id_in),
        partition(partition_in),
        ring(ring_in),
        server(server_in),
        created(created_in),
        balance(balance_window) {}

  void ResetEpochCounters() {
    queries_routed = 0;
    queries_served = 0;
  }
};

/// \brief Owner of all live vnode agents, indexed by id.
///
/// Vnode ids come from RingCatalog::AllocateVNodeId: dense and never
/// reused, so slot `id` of a deque holds vnode `id` and a lookup is a
/// bounds check and an indexed load. A slot whose `id` differs from its
/// index (never created, or removed) is dead. A deque, not a vector:
/// growing it at the end keeps every existing VirtualNode in place, so
/// references handed out earlier stay valid across later creates.
class VNodeRegistry {
 public:
  explicit VNodeRegistry(int balance_window)
      : balance_window_(balance_window) {}

  /// Creates an agent for a fresh replica and returns it. A live `id`
  /// keeps its agent, which is returned unchanged; kInvalidVNode is
  /// refused (nullptr).
  VirtualNode* Create(VNodeId id, PartitionId partition, RingId ring,
                      ServerId server, Epoch epoch);

  VirtualNode* Find(VNodeId id) {
    return id < nodes_.size() && nodes_[id].id == id ? &nodes_[id]
                                                     : nullptr;
  }
  const VirtualNode* Find(VNodeId id) const {
    return id < nodes_.size() && nodes_[id].id == id ? &nodes_[id]
                                                     : nullptr;
  }

  /// Removes an agent (suicide, failure); NotFound when unknown.
  Status Remove(VNodeId id);

  /// Live agents.
  size_t size() const { return live_; }

  /// Iteration over the live agents, in id order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].id == i) fn(&nodes_[i]);
    }
  }

  int balance_window() const { return balance_window_; }

 private:
  int balance_window_;
  size_t live_ = 0;
  std::deque<VirtualNode> nodes_;
};

}  // namespace skute

#endif  // SKUTE_CORE_VNODE_H_
