#ifndef SKUTE_ENGINE_SHARD_H_
#define SKUTE_ENGINE_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "skute/common/random.h"
#include "skute/engine/epoch_options.h"
#include "skute/ring/catalog.h"

namespace skute {

/// \brief The epoch's deterministic partition sharding: contiguous chunks
/// of the catalog's partition iteration order, one chunk per logical
/// shard.
///
/// The shard count is a pure function of the partition count and the
/// EpochOptions — crucially, it never depends on EpochOptions::threads.
/// Worker threads are merely the executors of logical shards, so a run
/// with any thread count visits identical shard boundaries, each shard
/// sees an identical partition order, and per-shard outputs merged in
/// shard order are identical. That is the whole determinism argument of
/// the parallel decision plane.
class ShardPlan {
 public:
  /// Snapshot of the catalog's partitions, chunked. `rng_salt` seeds the
  /// per-shard RNG streams (callers pass seed ^ epoch so streams differ
  /// across epochs but not across thread counts).
  static ShardPlan Build(const RingCatalog& catalog,
                         const EpochOptions& options, uint64_t rng_salt);

  /// clamp(partitions / min_partitions_per_shard, 1, max_shards).
  static size_t ShardCountFor(size_t partitions,
                              const EpochOptions& options);

  size_t shard_count() const { return shards_.size(); }
  const std::vector<const Partition*>& shard(size_t i) const {
    return shards_[i];
  }
  size_t total_partitions() const;

  /// An independent deterministic RNG stream for one shard: a function of
  /// (rng_salt, shard) only. Stages that need randomness inside a shard
  /// draw from this, never from the store's sequential RNG, so the
  /// draw order cannot depend on thread interleaving.
  Rng ShardRng(size_t shard) const;

  /// Reseeds the per-shard RNG streams. The chunk layout is a pure
  /// function of the catalog, so a cached plan is re-used across epochs
  /// by swapping in the new epoch's salt (see ShardPlanCache).
  void set_rng_salt(uint64_t salt) { rng_salt_ = salt; }

 private:
  std::vector<std::vector<const Partition*>> shards_;
  uint64_t rng_salt_ = 0;
};

/// \brief Cross-epoch ShardPlan cache (ROADMAP "shard-plan reuse"): the
/// chunk layout is rebuilt only when the placement actually changed
/// (placement_version moved — splits, repairs, migrations, failures,
/// ring attachment all bump it), instead of O(partitions) every epoch.
/// Reuse is exact: a cached plan is bit-identical to a fresh Build
/// because partitions are never destroyed and the catalog's iteration
/// order only changes on events that bump placement_version.
class ShardPlanCache {
 public:
  /// The plan for this epoch: cached when `placement_version` matches
  /// the build version, rebuilt otherwise. `rng_salt` is applied either
  /// way (per-epoch shard RNG streams).
  const ShardPlan& Get(const RingCatalog& catalog,
                       const EpochOptions& options, uint64_t rng_salt,
                       uint64_t placement_version);

  void Invalidate() { plan_.reset(); }

  /// How often the cache built a plan and how often it saved a rebuild.
  uint64_t builds() const { return builds_; }
  uint64_t reuses() const { return reuses_; }

 private:
  std::optional<ShardPlan> plan_;
  uint64_t built_version_ = 0;
  uint64_t builds_ = 0;
  uint64_t reuses_ = 0;
};

}  // namespace skute

#endif  // SKUTE_ENGINE_SHARD_H_
