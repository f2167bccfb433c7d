#ifndef SKUTE_BACKEND_DURABLE_BACKEND_H_
#define SKUTE_BACKEND_DURABLE_BACKEND_H_

#include <string>
#include <string_view>

#include "skute/backend/backend.h"
#include "skute/storage/kvstore.h"
#include "skute/storage/wal.h"

namespace skute {

/// \brief KvStore with a write-ahead log behind the StorageBackend
/// interface: every mutation is appended to the in-memory WAL before it
/// touches the memtable (the standard log-then-apply contract), so a
/// crashed replica can be rebuilt by replaying the log. `log()` is what a
/// deployment fsyncs/ships; Recover() replays a log over the current
/// state and tolerates a corrupt tail; Checkpoint() drops the log once
/// the memtable has been persisted elsewhere.
///
/// Delete of a missing key is NotFound and nothing is logged: the log
/// holds only applied mutations, so it replays exactly.
class DurableBackend : public StorageBackend {
 public:
  explicit DurableBackend(uint64_t seed = 0) : table_(seed) {}

  BackendKind kind() const override { return BackendKind::kDurable; }

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) const override {
    ++io_.gets;
    return table_.Get(key);
  }
  Status Delete(std::string_view key) override;
  bool Contains(std::string_view key) const override {
    return table_.Contains(key);
  }
  size_t Count() const override { return table_.Count(); }
  uint64_t ApproximateBytes() const override {
    return table_.ApproximateBytes();
  }
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view start_key, size_t limit) const override {
    ++io_.scans;
    return table_.Scan(start_key, limit);
  }

  /// The log *is* the snapshot while it covers the whole history and is
  /// no larger than a live-set dump; otherwise the base key-ordered
  /// export takes over.
  std::string ExportSnapshot() const override;

  /// Flush models the fsync of the accumulated log tail.
  Status Flush() override;

  Status Wipe() override;

  uint64_t UnflushedBytes() const override { return unflushed_; }

  // --- incremental log shipping --------------------------------------------

  /// The WAL gives this backend a real mutation log, so replication can
  /// ship only the records a destination is missing.
  bool SupportsDeltaExport() const override;

  /// Global (checkpoint-surviving) sequence: WalWriter numbering restarts
  /// at every Checkpoint, so the backend carries the cumulative base.
  uint64_t DeltaSequence() const override {
    return base_seq_ + wal_.last_sequence();
  }

  /// The log suffix with global sequence > `since`, verbatim (the records
  /// are already WAL-framed and in order). Unavailable when `since`
  /// predates the last checkpoint (the log no longer reaches back) or is
  /// ahead of this backend.
  Result<std::string> ExportDelta(uint64_t since) const override;

  // --- Durability-specific surface (bench + recovery tests) ---------------

  /// The serialized log since the last Checkpoint.
  const std::string& log() const { return wal_.data(); }
  uint64_t last_sequence() const { return wal_.last_sequence(); }

  /// Replays a serialized log over the current state; returns the number
  /// of records applied, stopping at (and tolerating) a corrupt tail.
  Result<size_t> Recover(std::string_view log_bytes);

  /// Drops the log (after the memtable has been persisted elsewhere).
  void Checkpoint() override;

  /// Global sequence at the last Checkpoint — deltas reach back to here.
  uint64_t checkpoint_sequence() const { return base_seq_; }

 private:
  KvStore table_;
  WalWriter wal_;
  /// Log bytes not yet "synced" by Flush().
  uint64_t unflushed_ = 0;
  /// Set once Checkpoint()/Recover() ran: the log no longer covers the
  /// whole history.
  bool checkpointed_ = false;
  /// Global sequence of local WAL sequence 0 (advanced by Checkpoint and
  /// Recover so DeltaSequence never moves backwards).
  uint64_t base_seq_ = 0;
  /// Recover over a non-empty log breaks the local→global sequence
  /// mapping; delta export shuts off until Wipe resets the history.
  bool delta_disabled_ = false;
};

}  // namespace skute

#endif  // SKUTE_BACKEND_DURABLE_BACKEND_H_
