#include "skute/backend/durable_backend.h"

#include "skute/obs/trace.h"

namespace skute {

Status DurableBackend::Put(std::string_view key, std::string_view value) {
  ++io_.puts;
  const size_t record = EncodedWalRecordSize(key, value);
  io_.log_bytes_written += record;
  unflushed_ += record;
  wal_.Append(WalOp::kPut, key, value);
  const Status st = table_.Put(key, value);
  MaybeSubmitFlush();
  return st;
}

Status DurableBackend::Delete(std::string_view key) {
  ++io_.deletes;
  // Uniform backend contract: a missing key is NotFound and nothing is
  // logged (the log holds only applied mutations, so it replays exactly).
  if (!table_.Contains(key)) return Status::NotFound("key not found");
  const size_t record = EncodedWalRecordSize(key, {});
  io_.log_bytes_written += record;
  unflushed_ += record;
  wal_.Append(WalOp::kDelete, key, {});
  const Status st = table_.Delete(key);
  MaybeSubmitFlush();
  return st;
}

std::string DurableBackend::ExportSnapshot() const {
  // Ship the log verbatim (no scan) only while it both covers the whole
  // history *and* is no larger than a key-ordered dump of the live set —
  // a long write history of overwrites/deletes must not inflate transfer
  // cost without bound.
  const uint64_t dump_estimate =
      ApproximateBytes() +
      static_cast<uint64_t>(Count()) * EncodedWalRecordSize({}, {});
  if (!checkpointed_ && wal_.data().size() <= dump_estimate) {
    io_.snapshot_bytes_out += wal_.data().size();
    return wal_.data();
  }
  return StorageBackend::ExportSnapshot();
}

Status DurableBackend::Flush() {
  obs::TraceSpan span("io", "wal.fsync", unflushed_);
  io_.bytes_flushed += unflushed_;
  unflushed_ = 0;
  ++io_.fsyncs;
  return Status::OK();
}

Status DurableBackend::Wipe() {
  table_ = KvStore();
  wal_.Clear();
  unflushed_ = 0;
  checkpointed_ = false;
  base_seq_ = 0;
  delta_disabled_ = false;
  set_sync_origin(SyncOrigin{});
  return Status::OK();
}

Result<size_t> DurableBackend::Recover(std::string_view log_bytes) {
  obs::TraceSpan span("io", "wal.recover", log_bytes.size());
  // Recovered records are applied to the memtable without re-logging, so
  // from here on the local log no longer covers the whole history.
  checkpointed_ = true;
  if (wal_.last_sequence() != 0) {
    // Interleaving unlogged records into a live log breaks the
    // local→global sequence mapping deltas rely on.
    delta_disabled_ = true;
  }
  WalReader reader(log_bytes);
  size_t applied = 0;
  // Replay in log order until the clean end (NotFound) or a corrupt
  // tail: everything before the damage is recovered.
  for (auto record = reader.Next(); record.ok(); record = reader.Next()) {
    if (record->op == WalOp::kPut) {
      SKUTE_RETURN_IF_ERROR(table_.Put(record->key, record->value));
    } else {
      (void)table_.Delete(record->key);
    }
    ++applied;
  }
  base_seq_ += applied;
  return applied;
}

void DurableBackend::Checkpoint() {
  obs::TraceSpan span("io", "wal.checkpoint", wal_.data().size());
  base_seq_ += wal_.last_sequence();
  wal_.Clear();
  unflushed_ = 0;
  checkpointed_ = true;
}

bool DurableBackend::SupportsDeltaExport() const {
  return !delta_disabled_;
}

Result<std::string> DurableBackend::ExportDelta(uint64_t since) const {
  if (delta_disabled_) {
    return Status::Unavailable("sequence history broken by recover");
  }
  const uint64_t seq = DeltaSequence();
  if (since > seq) {
    return Status::Unavailable("destination is ahead of this source");
  }
  if (since < base_seq_) {
    return Status::Unavailable("checkpoint truncated the requested range");
  }
  if (since == seq) return std::string();  // nothing to ship
  // Records are framed and ordered in the log; find the byte offset of
  // the first record past `since` and ship the suffix verbatim.
  const uint64_t local_since = since - base_seq_;
  WalReader reader(wal_.data());
  size_t start = 0;
  for (;;) {
    const size_t before = reader.offset();
    auto record = reader.Next();
    if (!record.ok()) {
      return Status::Internal("log damaged while slicing delta");
    }
    if (record->sequence > local_since) {
      start = before;
      break;
    }
  }
  std::string out = wal_.data().substr(start);
  io_.delta_bytes_out += out.size();
  obs::TraceSpan span("io", "delta.export", out.size());
  return out;
}

}  // namespace skute
