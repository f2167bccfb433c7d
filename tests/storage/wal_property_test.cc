// Property sweep: for any random operation sequence, replaying the WAL
// into a fresh store reproduces exactly the state of a reference model —
// and replaying any truncated prefix reproduces the reference model of
// the corresponding operation prefix. Deletes of missing keys are
// NotFound and unlogged, so records are counted over logged ops only.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "skute/backend/durable_backend.h"
#include "skute/common/random.h"

namespace skute {
namespace {

struct Op {
  bool is_put;
  std::string key;
  std::string value;
};

std::vector<Op> RandomOps(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (int i = 0; i < count; ++i) {
    Op op;
    op.is_put = rng.Bernoulli(0.7);
    // Built with += (not operator+) to sidestep GCC 12's -Wrestrict
    // false positive on small-string concatenation.
    op.key = "k";
    op.key += std::to_string(rng.UniformInt(0, 49));
    if (op.is_put) {
      op.value = std::string(rng.UniformInt(0, 100), 'v');
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::map<std::string, std::string> Reference(const std::vector<Op>& ops,
                                             size_t prefix) {
  std::map<std::string, std::string> model;
  for (size_t i = 0; i < prefix && i < ops.size(); ++i) {
    if (ops[i].is_put) {
      model[ops[i].key] = ops[i].value;
    } else {
      model.erase(ops[i].key);
    }
  }
  return model;
}

/// Applies `op`; returns whether it was logged. A delete of a missing key
/// must be NotFound and leave the log untouched.
bool Apply(DurableBackend* store, const Op& op) {
  const uint64_t before = store->last_sequence();
  if (op.is_put) {
    EXPECT_TRUE(store->Put(op.key, op.value).ok());
    return true;
  }
  const bool present = store->Contains(op.key);
  const Status deleted = store->Delete(op.key);
  EXPECT_EQ(deleted.ok(), present) << op.key;
  if (!present) {
    EXPECT_TRUE(deleted.IsNotFound()) << op.key;
    EXPECT_EQ(store->last_sequence(), before) << op.key;
  }
  return present;
}

void ExpectMatches(const DurableBackend& store,
                   const std::map<std::string, std::string>& model) {
  ASSERT_EQ(store.Count(), model.size());
  for (const auto& [key, value] : model) {
    auto v = store.Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

class WalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalPropertyTest, FullReplayEqualsReferenceModel) {
  const std::vector<Op> ops = RandomOps(GetParam(), 300);
  DurableBackend original;
  size_t logged = 0;
  for (const Op& op : ops) {
    if (Apply(&original, op)) ++logged;
  }
  // Keys are drawn from 50, so some deletes miss and stay unlogged.
  EXPECT_LT(logged, ops.size());
  DurableBackend rebuilt;
  auto applied = rebuilt.Recover(original.log());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, logged);
  ExpectMatches(rebuilt, Reference(ops, ops.size()));
  // Idempotence-of-state: recovering the same log again converges to the
  // same state (every op replays LWW-style).
  ASSERT_TRUE(rebuilt.Recover(original.log()).ok());
  ExpectMatches(rebuilt, Reference(ops, ops.size()));
}

TEST_P(WalPropertyTest, AnyRecordPrefixEqualsOperationPrefix) {
  const std::vector<Op> ops = RandomOps(GetParam() ^ 0xabcd, 60);
  DurableBackend original;
  // Record the log length after every logged operation, and the length
  // of the operation prefix it ends.
  std::vector<size_t> boundaries;
  std::vector<size_t> op_prefix;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!Apply(&original, ops[i])) continue;
    boundaries.push_back(original.log().size());
    op_prefix.push_back(i + 1);
  }
  // Every clean prefix replays to the matching reference model.
  for (size_t i = 0; i < boundaries.size(); i += 7) {
    DurableBackend rebuilt;
    auto applied = rebuilt.Recover(
        std::string_view(original.log()).substr(0, boundaries[i]));
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(*applied, i + 1);
    ExpectMatches(rebuilt, Reference(ops, op_prefix[i]));
  }
  // A torn cut inside record i+1 recovers the state up to record i.
  if (boundaries.size() >= 2) {
    const size_t last = boundaries.size() - 2;
    const size_t cut = boundaries[last] + 3;
    DurableBackend rebuilt;
    auto applied = rebuilt.Recover(
        std::string_view(original.log()).substr(0, cut));
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(*applied, last + 1);
    ExpectMatches(rebuilt, Reference(ops, op_prefix[last]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalPropertyTest,
                         ::testing::Values(7, 14, 21, 28, 35));

}  // namespace
}  // namespace skute
