#ifndef SKUTE_STORAGE_KVSTORE_H_
#define SKUTE_STORAGE_KVSTORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "skute/common/result.h"
#include "skute/storage/skiplist.h"

namespace skute {

/// \brief In-memory key-value store for one partition replica: an ordered
/// memtable over the skiplist with byte accounting.
///
/// This is the engine behind the real-data path of SkuteStore (examples,
/// tests). The simulator's synthetic path tracks only sizes in the
/// partition catalog and bypasses this class.
class KvStore {
 public:
  explicit KvStore(uint64_t seed = 0) : table_(seed) {}

  KvStore(KvStore&&) noexcept = default;
  KvStore& operator=(KvStore&&) noexcept = default;

  /// Inserts or overwrites a key.
  Status Put(std::string_view key, std::string_view value);

  /// Returns a copy of the value, or NotFound.
  Result<std::string> Get(std::string_view key) const;

  /// Deletes a key; NotFound if absent.
  Status Delete(std::string_view key);

  bool Contains(std::string_view key) const;

  /// Up to `limit` (key, value) pairs with key >= start_key, in key order.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view start_key, size_t limit) const;

  size_t Count() const { return table_.size(); }

  /// Sum of key+value sizes — the footprint used for storage accounting.
  uint64_t ApproximateBytes() const { return bytes_; }

  void Clear();

 private:
  SkipList<std::string, std::string> table_;
  uint64_t bytes_ = 0;
};

}  // namespace skute

#endif  // SKUTE_STORAGE_KVSTORE_H_
