#include "skute/storage/wal.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "skute/backend/durable_backend.h"
#include "skute/common/crc32.h"

namespace skute {
namespace {

TEST(Crc32Test, KnownVectors) {
  // CRC-32C of "123456789" is the classic check value 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32Test, SensitiveToEveryByte) {
  EXPECT_NE(Crc32c("hello"), Crc32c("hellp"));
  EXPECT_NE(Crc32c("hello"), Crc32c("hell"));
}

TEST(Crc32Test, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, ~0u}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  }
  EXPECT_NE(MaskCrc(0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(WalTest, AppendAndReadBack) {
  WalWriter writer;
  EXPECT_EQ(writer.Append(WalOp::kPut, "k1", "v1"), 1u);
  EXPECT_EQ(writer.Append(WalOp::kDelete, "k1", ""), 2u);
  EXPECT_EQ(writer.Append(WalOp::kPut, "k2", "v2"), 3u);
  EXPECT_EQ(writer.record_count(), 3u);

  WalReader reader(writer.data());
  bool corrupt = true;
  const auto records = reader.ReadAll(&corrupt);
  EXPECT_FALSE(corrupt);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].op, WalOp::kPut);
  EXPECT_EQ(records[0].key, "k1");
  EXPECT_EQ(records[0].value, "v1");
  EXPECT_EQ(records[0].sequence, 1u);
  EXPECT_EQ(records[1].op, WalOp::kDelete);
  EXPECT_EQ(records[2].sequence, 3u);
}

TEST(WalTest, EmptyLog) {
  WalReader reader("");
  EXPECT_TRUE(reader.Next().status().IsNotFound());
  bool corrupt = true;
  EXPECT_TRUE(reader.ReadAll(&corrupt).empty());
  EXPECT_FALSE(corrupt);
}

TEST(WalTest, EmptyKeyAndValueAllowed) {
  WalWriter writer;
  writer.Append(WalOp::kPut, "", "");
  WalReader reader(writer.data());
  auto record = reader.Next();
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->key, "");
  EXPECT_EQ(record->value, "");
}

TEST(WalTest, BitFlipDetected) {
  WalWriter writer;
  writer.Append(WalOp::kPut, "key", "value");
  std::string damaged(writer.data());
  damaged[damaged.size() / 2] ^= 0x40;  // flip a payload bit
  WalReader reader(damaged);
  auto record = reader.Next();
  EXPECT_TRUE(record.status().IsInternal());
}

TEST(WalTest, TruncationStopsCleanlyAtTail) {
  WalWriter writer;
  writer.Append(WalOp::kPut, "a", "1");
  writer.Append(WalOp::kPut, "b", "2");
  // Cut the last record in half (a torn write at crash time).
  std::string torn(writer.data().substr(0, writer.data().size() - 3));
  WalReader reader(torn);
  bool corrupt = false;
  const auto records = reader.ReadAll(&corrupt);
  EXPECT_TRUE(corrupt);
  ASSERT_EQ(records.size(), 1u);  // first record survives
  EXPECT_EQ(records[0].key, "a");
}

TEST(WalTest, GarbagePrefixRejected) {
  WalReader reader("not a log at all, definitely");
  EXPECT_TRUE(reader.Next().status().IsInternal());
}

TEST(WalTest, FileRoundTrip) {
  WalWriter writer;
  for (int i = 0; i < 100; ++i) {
    writer.Append(WalOp::kPut, "key-" + std::to_string(i),
                  std::string(i, 'x'));
  }
  const std::string path = ::testing::TempDir() + "/skute_wal_test.log";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(writer.data().data(),
              static_cast<std::streamsize>(writer.data().size()));
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  WalReader reader(bytes);
  bool corrupt = true;
  EXPECT_EQ(reader.ReadAll(&corrupt).size(), 100u);
  EXPECT_FALSE(corrupt);
  std::remove(path.c_str());
}

TEST(WalTest, ClearResetsSequence) {
  WalWriter writer;
  writer.Append(WalOp::kPut, "k", "v");
  writer.Clear();
  EXPECT_TRUE(writer.data().empty());
  EXPECT_EQ(writer.Append(WalOp::kPut, "k", "v"), 1u);
}

TEST(DurableBackendTest, MutationsAreLogged) {
  DurableBackend store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("b", "2").ok());
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.last_sequence(), 3u);
  EXPECT_FALSE(store.log().empty());
  EXPECT_TRUE(store.Get("b").ok());
  EXPECT_TRUE(store.Get("a").status().IsNotFound());
}

TEST(DurableBackendTest, RecoverRebuildsExactState) {
  DurableBackend original;
  ASSERT_TRUE(original.Put("x", "1").ok());
  ASSERT_TRUE(original.Put("y", "2").ok());
  ASSERT_TRUE(original.Put("x", "3").ok());  // overwrite
  ASSERT_TRUE(original.Delete("y").ok());

  DurableBackend rebuilt;
  auto applied = rebuilt.Recover(original.log());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 4u);
  EXPECT_EQ(*rebuilt.Get("x"), "3");
  EXPECT_TRUE(rebuilt.Get("y").status().IsNotFound());
  EXPECT_EQ(rebuilt.Count(), original.Count());
}

TEST(DurableBackendTest, RecoverToleratesCorruptTail) {
  DurableBackend original;
  ASSERT_TRUE(original.Put("a", "1").ok());
  ASSERT_TRUE(original.Put("b", "2").ok());
  std::string torn(original.log().substr(0, original.log().size() - 2));
  DurableBackend rebuilt;
  auto applied = rebuilt.Recover(torn);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(*rebuilt.Get("a"), "1");
  EXPECT_TRUE(rebuilt.Get("b").status().IsNotFound());
}

TEST(DurableBackendTest, DeleteOfMissingKeyIsNotFoundAndUnlogged) {
  DurableBackend store;
  ASSERT_TRUE(store.Put("k", "v").ok());
  EXPECT_TRUE(store.Delete("ghost").IsNotFound());
  EXPECT_EQ(store.last_sequence(), 1u);
}

TEST(DurableBackendTest, CheckpointDropsLogKeepsData) {
  DurableBackend store;
  ASSERT_TRUE(store.Put("k", "v").ok());
  store.Checkpoint();
  EXPECT_TRUE(store.log().empty());
  EXPECT_EQ(*store.Get("k"), "v");
  // Post-checkpoint mutations land in a fresh log.
  ASSERT_TRUE(store.Put("k2", "v2").ok());
  DurableBackend rebuilt;
  ASSERT_TRUE(rebuilt.Recover(store.log()).ok());
  EXPECT_TRUE(rebuilt.Get("k").status().IsNotFound());  // pre-checkpoint
  EXPECT_EQ(*rebuilt.Get("k2"), "v2");
}

}  // namespace
}  // namespace skute
