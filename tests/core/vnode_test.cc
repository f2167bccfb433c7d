// The vnode registry: an id-indexed table of live agents. Lookups of ids
// that were never created, were removed, or lie past the table miss;
// references survive later creates.

#include "skute/core/vnode.h"

#include <vector>

#include <gtest/gtest.h>

namespace skute {
namespace {

TEST(VNodeRegistryTest, FindMissesUnknownRemovedAndPastTheEndIds) {
  VNodeRegistry vnodes(4);
  EXPECT_EQ(vnodes.Find(0), nullptr);
  EXPECT_EQ(vnodes.Find(kInvalidVNode), nullptr);

  ASSERT_NE(vnodes.Create(3, 7, 1, 2, 5), nullptr);
  EXPECT_EQ(vnodes.Find(0), nullptr);  // below a live id, never created
  EXPECT_EQ(vnodes.Find(2), nullptr);
  EXPECT_EQ(vnodes.Find(4), nullptr);  // past the end
  EXPECT_EQ(vnodes.Find(kInvalidVNode), nullptr);

  const VirtualNode* v = vnodes.Find(3);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->id, 3u);
  EXPECT_EQ(v->partition, 7u);
  EXPECT_EQ(v->ring, 1u);
  EXPECT_EQ(v->server, 2u);
  EXPECT_EQ(v->created, 5);
  EXPECT_EQ(v->balance.window(), 4);

  ASSERT_TRUE(vnodes.Remove(3).ok());
  EXPECT_EQ(vnodes.Find(3), nullptr);
  const VNodeRegistry& view = vnodes;
  EXPECT_EQ(view.Find(3), nullptr);
}

TEST(VNodeRegistryTest, SecondRemoveIsNotFound) {
  VNodeRegistry vnodes(4);
  EXPECT_TRUE(vnodes.Remove(0).IsNotFound());
  ASSERT_NE(vnodes.Create(1, 0, 0, 0, 0), nullptr);
  EXPECT_TRUE(vnodes.Remove(0).IsNotFound());  // dead slot
  EXPECT_TRUE(vnodes.Remove(1).ok());
  EXPECT_TRUE(vnodes.Remove(1).IsNotFound());
  EXPECT_TRUE(vnodes.Remove(9).IsNotFound());  // past end
}

TEST(VNodeRegistryTest, SizeCountsLiveVNodes) {
  VNodeRegistry vnodes(4);
  EXPECT_EQ(vnodes.size(), 0u);
  for (VNodeId id : {0u, 5u, 2u}) {
    ASSERT_NE(vnodes.Create(id, id, 0, 0, 0), nullptr);
  }
  EXPECT_EQ(vnodes.size(), 3u);
  ASSERT_NE(vnodes.Create(5, 5, 0, 0, 0), nullptr);  // already live
  EXPECT_EQ(vnodes.size(), 3u);
  ASSERT_TRUE(vnodes.Remove(5).ok());
  EXPECT_EQ(vnodes.size(), 2u);
  EXPECT_FALSE(vnodes.Remove(5).ok());
  EXPECT_EQ(vnodes.size(), 2u);
  EXPECT_EQ(vnodes.Create(kInvalidVNode, 0, 0, 0, 0), nullptr);
  EXPECT_EQ(vnodes.size(), 2u);
}

TEST(VNodeRegistryTest, ForEachVisitsLiveVNodesInIdOrder) {
  VNodeRegistry vnodes(4);
  for (VNodeId id : {6u, 1u, 4u, 3u, 9u}) {
    ASSERT_NE(vnodes.Create(id, 0, 0, 0, 0), nullptr);
  }
  ASSERT_TRUE(vnodes.Remove(4).ok());
  ASSERT_TRUE(vnodes.Remove(9).ok());
  std::vector<VNodeId> seen;
  vnodes.ForEach([&](VirtualNode* v) { seen.push_back(v->id); });
  EXPECT_EQ(seen, (std::vector<VNodeId>{1, 3, 6}));
}

TEST(VNodeRegistryTest, CreateOnALiveIdReturnsTheExistingVNode) {
  VNodeRegistry vnodes(4);
  VirtualNode* v = vnodes.Create(2, 10, 1, 3, 7);
  ASSERT_NE(v, nullptr);
  v->queries_served = 42;
  v->balance.Record(-1.0);

  VirtualNode* again = vnodes.Create(2, 99, 0, 8, 9);
  EXPECT_EQ(again, v);
  EXPECT_EQ(again->partition, 10u);
  EXPECT_EQ(again->server, 3u);
  EXPECT_EQ(again->created, 7);
  EXPECT_EQ(again->queries_served, 42u);
  EXPECT_EQ(again->balance.count(), 1u);

  // A removed id is re-created fresh.
  ASSERT_TRUE(vnodes.Remove(2).ok());
  VirtualNode* fresh = vnodes.Create(2, 99, 0, 8, 9);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->partition, 99u);
  EXPECT_EQ(fresh->queries_served, 0u);
  EXPECT_EQ(fresh->balance.count(), 0u);
}

TEST(VNodeRegistryTest, ReferencesSurviveLaterCreates) {
  VNodeRegistry vnodes(4);
  VirtualNode& first = *vnodes.Create(0, 0, 0, 11, 0);
  const VirtualNode* first_address = &first;
  // Grow the table by orders of magnitude, one id at a time and in jumps.
  for (VNodeId id = 1; id < 5000; ++id) {
    ASSERT_NE(vnodes.Create(id, id, 0, 0, 0), nullptr);
  }
  ASSERT_NE(vnodes.Create(100000, 0, 0, 0, 0), nullptr);
  EXPECT_EQ(vnodes.Find(0), first_address);
  EXPECT_EQ(first.id, 0u);
  EXPECT_EQ(first.server, 11u);
  first.queries_routed = 5;
  EXPECT_EQ(vnodes.Find(0)->queries_routed, 5u);
}

}  // namespace
}  // namespace skute
