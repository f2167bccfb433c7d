// Torn-tail recovery, checked at *every* record boundary: a WAL (or a
// WAL-framed snapshot) truncated anywhere — exactly on a boundary, one
// byte past it, or mid-record — must recover the intact prefix and
// never invent or corrupt a record. This is the crash-recovery contract
// the chaos plane's torn-write injector leans on.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "skute/backend/durable_backend.h"
#include "skute/chaos/torn.h"
#include "skute/storage/wal.h"

namespace skute {
namespace {

struct Framed {
  std::string log;
  std::vector<size_t> boundaries;  ///< offset AFTER record i
  std::vector<WalRecord> records;
};

/// Builds a log of `n` records with varied key/value sizes (including
/// empties) and collects every record boundary via incremental reads.
Framed BuildLog(size_t n) {
  Framed f;
  WalWriter writer;
  for (size_t i = 0; i < n; ++i) {
    const std::string key = "key:" + std::to_string(i);
    const std::string value =
        i % 3 == 2 ? "" : std::string(1 + (i * 7) % 40, 'a' + (i % 26));
    if (i % 5 == 4) {
      writer.Append(WalOp::kDelete, key, "");
    } else {
      writer.Append(WalOp::kPut, key, value);
    }
  }
  f.log = writer.data();
  WalReader reader(f.log);
  while (true) {
    auto rec = reader.Next();
    if (!rec.ok()) break;
    f.records.push_back(*rec);
    f.boundaries.push_back(reader.offset());
  }
  EXPECT_EQ(f.records.size(), n);
  return f;
}

TEST(TornTailRecoveryTest, ReaderRecoversPrefixAtEveryBoundary) {
  const Framed f = BuildLog(12);
  // Truncation offsets to try around boundary i: exactly at it (a clean
  // shorter log), 1 and 3 bytes past it (a torn record i+1).
  for (size_t i = 0; i < f.boundaries.size(); ++i) {
    const size_t boundary = f.boundaries[i];
    for (const size_t extra : {size_t{0}, size_t{1}, size_t{3}}) {
      const size_t cut = boundary + extra;
      if (cut > f.log.size()) continue;
      const bool torn_mid_record = extra != 0 && cut < f.log.size();
      const std::string truncated = chaos::TornTail(f.log, cut);

      WalReader reader(truncated);
      bool corrupt = false;
      const auto records = reader.ReadAll(&corrupt);
      ASSERT_EQ(records.size(), i + 1)
          << "cut at boundary " << i << " + " << extra;
      EXPECT_EQ(corrupt, torn_mid_record)
          << "cut at boundary " << i << " + " << extra;
      for (size_t r = 0; r <= i; ++r) {
        EXPECT_EQ(records[r].key, f.records[r].key);
        EXPECT_EQ(records[r].value, f.records[r].value);
        EXPECT_EQ(records[r].sequence, f.records[r].sequence);
      }
    }
  }
}

TEST(TornTailRecoveryTest, ReaderRecoversPrefixAtEveryByteOfOneRecord) {
  // Exhaustive within one record: every byte offset inside record 3
  // yields exactly 3 intact records and a corrupt verdict.
  const Framed f = BuildLog(5);
  const size_t lo = f.boundaries[2];
  const size_t hi = f.boundaries[3];
  for (size_t cut = lo + 1; cut < hi; ++cut) {
    const std::string truncated = chaos::TornTail(f.log, cut);
    WalReader reader(truncated);
    bool corrupt = false;
    const auto records = reader.ReadAll(&corrupt);
    EXPECT_EQ(records.size(), 3u) << "cut at " << cut;
    EXPECT_TRUE(corrupt) << "cut at " << cut;
  }
}

TEST(TornTailRecoveryTest, DurableStoreRecoversIntactPrefix) {
  const Framed f = BuildLog(10);
  for (size_t i = 0; i < f.boundaries.size(); ++i) {
    const size_t cut = f.boundaries[i] + (i % 2 == 0 ? 0 : 2);
    if (cut > f.log.size()) continue;
    DurableBackend store;
    const auto applied = store.Recover(chaos::TornTail(f.log, cut));
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(*applied, i + 1) << "cut at boundary " << i;
  }
}

TEST(TornTailRecoveryTest, SnapshotImportAppliesPrefixAndReportsTear) {
  // The replication-facing face of the same contract: a mid-record torn
  // snapshot imports its intact prefix and returns kInternal, which is
  // what makes the executor treat the transfer as blocked.
  DurableBackend src;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(src.Put("k:" + std::to_string(i),
                        std::string(32, 'x'))
                    .ok());
  }
  const std::string snapshot = src.ExportSnapshot();

  // Find the boundaries of the snapshot stream itself.
  WalReader reader(snapshot);
  std::vector<size_t> boundaries;
  while (reader.Next().ok()) boundaries.push_back(reader.offset());
  ASSERT_EQ(boundaries.size(), 20u);

  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    DurableBackend dst;
    const std::string torn =
        chaos::TornTail(snapshot, boundaries[i] + 1);  // mid record i+1
    const Status imported = dst.ImportSnapshot(torn);
    EXPECT_TRUE(imported.IsInternal()) << "tear after boundary " << i;
    EXPECT_EQ(dst.Count(), i + 1) << "tear after boundary " << i;
  }
}

TEST(TornTailRecoveryTest, TornKeepLengthIsDeterministicAndShorter) {
  const size_t full = 1 << 20;
  const size_t len1 = chaos::TornKeepLength(42, 7, 0x1234, 1, 2, full);
  const size_t len2 = chaos::TornKeepLength(42, 7, 0x1234, 1, 2, full);
  EXPECT_EQ(len1, len2);
  EXPECT_LT(len1, full);  // never the complete payload
  // Different draws tear at different points.
  EXPECT_NE(chaos::TornKeepLength(42, 7, 0x1234, 1, 2, full),
            chaos::TornKeepLength(43, 8, 0x1234, 1, 2, full));
  EXPECT_EQ(chaos::TornKeepLength(42, 7, 0x1234, 1, 2, 0), 0u);
}

}  // namespace
}  // namespace skute
