#include "skute/core/vnode.h"

namespace skute {

namespace {

VirtualNode DeadSlot(int balance_window) {
  return VirtualNode(kInvalidVNode, kInvalidPartition, 0, kInvalidServer, 0,
                     balance_window);
}

}  // namespace

VirtualNode* VNodeRegistry::Create(VNodeId id, PartitionId partition,
                                   RingId ring, ServerId server,
                                   Epoch epoch) {
  if (id == kInvalidVNode) return nullptr;
  if (VirtualNode* live = Find(id)) return live;
  if (id >= nodes_.size()) nodes_.resize(id + 1, DeadSlot(balance_window_));
  nodes_[id] =
      VirtualNode(id, partition, ring, server, epoch, balance_window_);
  ++live_;
  return &nodes_[id];
}

Status VNodeRegistry::Remove(VNodeId id) {
  if (Find(id) == nullptr) {
    return Status::NotFound("unknown vnode");
  }
  nodes_[id] = DeadSlot(balance_window_);
  --live_;
  return Status::OK();
}

}  // namespace skute
