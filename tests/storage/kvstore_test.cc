#include "skute/storage/kvstore.h"

#include <gtest/gtest.h>

#include "skute/storage/replica_store.h"

namespace skute {
namespace {

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store;
  ASSERT_TRUE(store.Put("user:1", "alice").ok());
  auto v = store.Get("user:1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "alice");
}

TEST(KvStoreTest, GetMissingIsNotFound) {
  KvStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
}

TEST(KvStoreTest, OverwriteUpdatesBytes) {
  KvStore store;
  ASSERT_TRUE(store.Put("k", "12345").ok());
  EXPECT_EQ(store.ApproximateBytes(), 6u);  // 1 + 5
  ASSERT_TRUE(store.Put("k", "12").ok());
  EXPECT_EQ(store.ApproximateBytes(), 3u);
  EXPECT_EQ(store.Count(), 1u);
}

TEST(KvStoreTest, DeleteReleasesBytes) {
  KvStore store;
  ASSERT_TRUE(store.Put("key", "value").ok());
  ASSERT_TRUE(store.Delete("key").ok());
  EXPECT_EQ(store.ApproximateBytes(), 0u);
  EXPECT_EQ(store.Count(), 0u);
  EXPECT_TRUE(store.Delete("key").IsNotFound());
}

TEST(KvStoreTest, Contains) {
  KvStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_FALSE(store.Contains("b"));
}

TEST(KvStoreTest, ScanOrderedWithLimit) {
  KvStore store;
  for (const char* k : {"c", "a", "b", "d"}) {
    ASSERT_TRUE(store.Put(k, k).ok());
  }
  const auto all = store.Scan("", 10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].first, "a");
  EXPECT_EQ(all[3].first, "d");

  const auto limited = store.Scan("b", 2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[0].first, "b");
  EXPECT_EQ(limited[1].first, "c");
}

TEST(KvStoreTest, EmptyValueAllowed) {
  KvStore store;
  ASSERT_TRUE(store.Put("k", "").ok());
  auto v = store.Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "");
  EXPECT_EQ(store.ApproximateBytes(), 1u);
}

TEST(KvStoreTest, ClearResets) {
  KvStore store;
  ASSERT_TRUE(store.Put("k", "v").ok());
  store.Clear();
  EXPECT_EQ(store.Count(), 0u);
  EXPECT_EQ(store.ApproximateBytes(), 0u);
}

TEST(ReplicaStoreTest, OpenOrCreateIsIdempotent) {
  ReplicaStore rs;
  StorageBackend* a = rs.OpenOrCreate(7);
  StorageBackend* b = rs.OpenOrCreate(7);
  EXPECT_EQ(a, b);
  // The default factory produces the seed behaviour: memory backends.
  EXPECT_EQ(a->kind(), BackendKind::kMemory);
  EXPECT_EQ(rs.partition_count(), 1u);
}

TEST(ReplicaStoreTest, FindMissingIsNull) {
  ReplicaStore rs;
  EXPECT_EQ(rs.Find(1), nullptr);
}

TEST(ReplicaStoreTest, DropRemovesData) {
  ReplicaStore rs;
  ASSERT_TRUE(rs.OpenOrCreate(1)->Put("k", "v").ok());
  ASSERT_TRUE(rs.Drop(1).ok());
  EXPECT_EQ(rs.Find(1), nullptr);
  EXPECT_TRUE(rs.Drop(1).IsNotFound());
}

TEST(ReplicaStoreTest, CopyFromOtherServer) {
  ReplicaStore src, dst;
  ASSERT_TRUE(src.OpenOrCreate(3)->Put("k", "v").ok());
  auto streamed = dst.CopyFrom(src, 3);
  ASSERT_TRUE(streamed.ok());
  EXPECT_GT(streamed->bytes, 0u);  // snapshot bytes crossed the "wire"
  ASSERT_NE(dst.Find(3), nullptr);
  EXPECT_EQ(*dst.Find(3)->Get("k"), "v");
  // Source keeps its copy (replication, not migration).
  EXPECT_NE(src.Find(3), nullptr);
  EXPECT_TRUE(dst.CopyFrom(src, 99).status().IsNotFound());
}

TEST(ReplicaStoreTest, MoveFromOtherServer) {
  ReplicaStore src, dst;
  ASSERT_TRUE(src.OpenOrCreate(3)->Put("k", "v").ok());
  ASSERT_TRUE(dst.MoveFrom(&src, 3).ok());
  EXPECT_EQ(src.Find(3), nullptr);  // gone from the source
  ASSERT_NE(dst.Find(3), nullptr);
  EXPECT_EQ(*dst.Find(3)->Get("k"), "v");
  EXPECT_TRUE(dst.MoveFrom(&src, 3).status().IsNotFound());
}

TEST(ReplicaStoreTest, TotalBytesSumsPartitions) {
  ReplicaStore rs;
  ASSERT_TRUE(rs.OpenOrCreate(1)->Put("a", "1").ok());   // 2 bytes
  ASSERT_TRUE(rs.OpenOrCreate(2)->Put("bb", "22").ok()); // 4 bytes
  EXPECT_EQ(rs.TotalBytes(), 6u);
  rs.Clear();
  EXPECT_EQ(rs.TotalBytes(), 0u);
  EXPECT_EQ(rs.partition_count(), 0u);
}

}  // namespace
}  // namespace skute
