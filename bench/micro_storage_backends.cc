// Storage-backend microbench: ops/sec, recovery time and I/O counters
// for each pluggable backend (memory, durable/WAL, file-segment, mmap),
// a 1000-server snapshot-streaming transfer workload over
// ReplicaDataMap, the group-commit fsync rate of the I/O offload pool,
// and the delta-vs-snapshot byte split of incremental log shipping —
// the persistence cost the placement economy's transfer accounting is
// measured against.
//
//   ./build/bench/micro_storage_backends [--seed=S] [--out=FILE]
//
// Writes BENCH_storage.json (MetricsRegistry snapshot) unless --out
// overrides the path. The file backends write under a unique directory
// in the system temp dir, removed at exit.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "skute/backend/durable_backend.h"
#include "skute/backend/factory.h"
#include "skute/backend/file_segment_backend.h"
#include "skute/backend/memory_backend.h"
#include "skute/backend/mmap_segment_backend.h"
#include "skute/io/io_pool.h"
#include "skute/obs/metrics_registry.h"
#include "skute/obs/trace.h"
#include "skute/scenario/report.h"
#include "skute/scenario/spec.h"
#include "skute/storage/replica_store.h"

namespace skute {
namespace {

constexpr int kOps = 20000;
constexpr int kServers = 1000;
constexpr int kRecordsPerPartition = 32;
constexpr int kTransfers = 1500;
constexpr int kDeltaRounds = 3;
constexpr int kDeltaRecordsPerRound = 4;

double Secs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double OpsPerSec(int ops, double secs) {
  return secs > 0 ? static_cast<double>(ops) / secs : 0.0;
}

std::string Key(int i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%08d", i);
  return buf;
}

struct BackendRun {
  std::string name;
  double put_ops_sec = 0;
  double get_ops_sec = 0;
  double delete_ops_sec = 0;
  double recovery_sec = 0;
  size_t recovered = 0;
  size_t final_count = 0;
  IoStats io;
};

/// Load + read + delete + recover one backend kind.
BackendRun RunSingleBackend(const BackendConfig& config,
                            const std::string& tmp_root) {
  BackendRun run;
  run.name = BackendKindName(config.kind);

  auto backend_or = BackendFactory(config).Create(/*partition_id=*/0);
  if (!backend_or.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 std::string(backend_or.status().message()).c_str());
    return run;
  }
  std::unique_ptr<StorageBackend> backend = std::move(backend_or).value();

  const std::string value(256, 'v');
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) (void)backend->Put(Key(i), value);
  run.put_ops_sec = OpsPerSec(kOps, Secs(start));

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) (void)backend->Get(Key(i));
  run.get_ops_sec = OpsPerSec(kOps, Secs(start));

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps / 4; ++i) (void)backend->Delete(Key(i * 4));
  run.delete_ops_sec = OpsPerSec(kOps / 4, Secs(start));
  run.final_count = backend->Count();
  run.io = backend->io();  // the write/read workload's I/O bill

  // Recovery: rebuild the same state in a fresh instance through each
  // backend's native path — snapshot import (memory), log replay
  // (durable), reopen-with-replay (file-segment and mmap).
  switch (config.kind) {
    case BackendKind::kMemory: {
      const std::string snapshot = backend->ExportSnapshot();
      MemoryBackend rebuilt;
      start = std::chrono::steady_clock::now();
      (void)rebuilt.ImportSnapshot(snapshot);
      run.recovery_sec = Secs(start);
      run.recovered = rebuilt.Count();
      break;
    }
    case BackendKind::kDurable: {
      auto* durable = static_cast<DurableBackend*>(backend.get());
      DurableBackend rebuilt;
      start = std::chrono::steady_clock::now();
      auto applied = rebuilt.Recover(durable->log());
      run.recovery_sec = Secs(start);
      run.recovered = rebuilt.Count();
      (void)applied;
      break;
    }
    case BackendKind::kFileSegment: {
      backend.reset();  // close the active segment ("process exit")
      start = std::chrono::steady_clock::now();
      auto reopened = FileSegmentBackend::Open(
          config.data_dir + "/p0", config.segment_bytes);
      run.recovery_sec = Secs(start);
      if (reopened.ok()) {
        run.recovered = (*reopened)->Count();
      }
      break;
    }
    case BackendKind::kMmap: {
      backend.reset();
      start = std::chrono::steady_clock::now();
      auto reopened = MmapSegmentBackend::Open(
          config.data_dir + "/p0", config.segment_bytes);
      run.recovery_sec = Secs(start);
      if (reopened.ok()) {
        run.recovered = (*reopened)->Count();
      }
      break;
    }
  }
  (void)tmp_root;
  return run;
}

struct TransferRun {
  std::string name;
  double transfers_sec = 0;
  uint64_t streamed_bytes = 0;
  uint64_t delta_transfers = 0;  // transfers that went incremental
  size_t intact = 0;  // partitions fully present at their final holder
};

/// 1000 servers, one partition each, kTransfers replication/migration
/// snapshot streams between them.
TransferRun RunTransferWorkload(const BackendConfig& config) {
  TransferRun run;
  run.name = BackendKindName(config.kind);

  const BackendFactory base(config);
  ReplicaDataMap data(
      [&base](uint32_t server) { return base.ForServer(server); });

  const std::string value(64, 'd');
  for (int p = 0; p < kServers; ++p) {
    StorageBackend* backend =
        data.For(static_cast<uint32_t>(p))
            .OpenOrCreate(static_cast<uint64_t>(p));
    for (int r = 0; r < kRecordsPerPartition; ++r) {
      (void)backend->Put(Key(r), value);
    }
  }

  uint64_t streamed = 0;
  std::vector<int> holder(kServers);
  for (int p = 0; p < kServers; ++p) holder[p] = p;

  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < kTransfers; ++t) {
    const int pid = t % kServers;
    const int src = holder[pid];
    const int dst = (src + 1 + t % (kServers - 1)) % kServers;
    if (t % 2 == 0) {
      auto moved = data.For(static_cast<uint32_t>(dst))
                       .CopyFrom(data.For(static_cast<uint32_t>(src)),
                                 static_cast<uint64_t>(pid));
      if (moved.ok()) {
        streamed += moved->bytes;
        if (moved->delta) ++run.delta_transfers;
      }
    } else {
      auto moved = data.For(static_cast<uint32_t>(dst))
                       .MoveFrom(&data.For(static_cast<uint32_t>(src)),
                                 static_cast<uint64_t>(pid));
      if (moved.ok()) {
        streamed += moved->bytes;
        if (moved->delta) ++run.delta_transfers;
        holder[pid] = dst;
      }
    }
  }
  run.transfers_sec = OpsPerSec(kTransfers, Secs(start));
  run.streamed_bytes = streamed;

  for (int p = 0; p < kServers; ++p) {
    const ReplicaStore* store = data.Find(static_cast<uint32_t>(holder[p]));
    const StorageBackend* backend =
        store == nullptr ? nullptr
                         : store->Find(static_cast<uint64_t>(p));
    if (backend != nullptr &&
        backend->Count() == static_cast<size_t>(kRecordsPerPartition)) {
      ++run.intact;
    }
  }
  return run;
}

struct GroupCommitRun {
  std::string name;
  uint64_t solo_fsyncs = 0;     ///< fsync-per-write durability
  uint64_t grouped_fsyncs = 0;  ///< pool-coalesced, drained per batch
  uint64_t group_commits = 0;
  uint64_t coalesced = 0;
};

/// The same write stream under two durability disciplines: one fsync per
/// write vs. the offload pool's group commit (all of a batch's flush
/// submissions for one backend collapse into one fsync at the drain).
GroupCommitRun RunGroupCommit(BackendConfig config,
                              const std::string& dir) {
  GroupCommitRun run;
  run.name = BackendKindName(config.kind);
  constexpr int kParts = 8;
  constexpr int kWrites = 4000;
  constexpr int kBatch = 200;  // drain cadence — one simulated epoch
  const std::string value(128, 'g');

  auto make_backends = [&](const BackendConfig& c, IoPool* pool)
      -> std::vector<std::unique_ptr<StorageBackend>> {
    BackendFactory factory(c);
    if (pool != nullptr) factory.AttachIoPool(pool, /*watermark=*/0);
    std::vector<std::unique_ptr<StorageBackend>> backends;
    for (int p = 0; p < kParts; ++p) {
      auto b = factory.Create(static_cast<uint64_t>(p));
      if (b.ok()) backends.push_back(std::move(b).value());
    }
    return backends;
  };

  {
    BackendConfig solo = config;
    solo.data_dir = dir + "/solo";
    auto backends = make_backends(solo, nullptr);
    for (int i = 0; i < kWrites; ++i) {
      StorageBackend* b = backends[static_cast<size_t>(i % kParts)].get();
      (void)b->Put(Key(i), value);
      (void)b->Flush();
    }
    for (const auto& b : backends) run.solo_fsyncs += b->io().fsyncs;
  }
  {
    BackendConfig grouped = config;
    grouped.data_dir = dir + "/grouped";
    IoPool pool(2);
    auto backends = make_backends(grouped, &pool);
    for (int i = 0; i < kWrites; ++i) {
      (void)backends[static_cast<size_t>(i % kParts)]->Put(Key(i), value);
      if ((i + 1) % kBatch == 0) (void)pool.Drain();
    }
    (void)pool.Drain();
    for (const auto& b : backends) {
      run.grouped_fsyncs += b->io().fsyncs;
      run.group_commits += b->io().group_commits;
      run.coalesced += b->io().coalesced_fsyncs;
    }
  }
  return run;
}

struct DeltaRun {
  uint64_t snapshot_transfers = 0;
  uint64_t delta_transfers = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t delta_bytes = 0;
};

/// Incremental log shipping at the 1000-server transfer scale: every
/// partition is cold-copied to a standby once (full snapshot), then
/// re-synced after each of kDeltaRounds small write batches — the
/// re-syncs ship only the log suffix.
DeltaRun RunDeltaWorkload() {
  DeltaRun run;
  BackendConfig config;
  config.kind = BackendKind::kDurable;
  const BackendFactory base(config);
  ReplicaDataMap data(
      [&base](uint32_t server) { return base.ForServer(server); });

  const std::string value(64, 'd');
  for (int p = 0; p < kServers; ++p) {
    StorageBackend* primary =
        data.For(static_cast<uint32_t>(p))
            .OpenOrCreate(static_cast<uint64_t>(p));
    for (int r = 0; r < kRecordsPerPartition; ++r) {
      (void)primary->Put(Key(r), value);
    }
  }

  for (int round = 0; round <= kDeltaRounds; ++round) {
    for (int p = 0; p < kServers; ++p) {
      if (round > 0) {
        StorageBackend* primary = data.For(static_cast<uint32_t>(p))
                                      .Find(static_cast<uint64_t>(p));
        const int first =
            kRecordsPerPartition + (round - 1) * kDeltaRecordsPerRound;
        for (int r = 0; r < kDeltaRecordsPerRound; ++r) {
          (void)primary->Put(Key(first + r), value);
        }
      }
      const int standby = (p + 1) % kServers;
      auto shipped = data.For(static_cast<uint32_t>(standby))
                         .CopyFrom(data.For(static_cast<uint32_t>(p)),
                                   static_cast<uint64_t>(p));
      if (!shipped.ok()) continue;
      if (shipped->delta) {
        ++run.delta_transfers;
        run.delta_bytes += shipped->bytes;
      } else {
        ++run.snapshot_transfers;
        run.snapshot_bytes += shipped->bytes;
      }
    }
  }
  return run;
}

void PrintRun(const BackendRun& r) {
  std::printf(
      "%-8s put %9.0f/s  get %9.0f/s  del %9.0f/s  recovery %.4fs "
      "(%zu records)\n",
      r.name.c_str(), r.put_ops_sec, r.get_ops_sec, r.delete_ops_sec,
      r.recovery_sec, r.recovered);
  std::printf(
      "         io: ops=%llu log=%llu B flushed=%llu B read=%llu B "
      "fsyncs=%llu snap_out=%llu B\n",
      static_cast<unsigned long long>(r.io.ops()),
      static_cast<unsigned long long>(r.io.log_bytes_written),
      static_cast<unsigned long long>(r.io.bytes_flushed),
      static_cast<unsigned long long>(r.io.bytes_read),
      static_cast<unsigned long long>(r.io.fsyncs),
      static_cast<unsigned long long>(r.io.snapshot_bytes_out));
}

obs::MetricsRegistry BuildBenchRegistry(
    const std::vector<BackendRun>& runs,
    const std::vector<TransferRun>& transfers,
    const std::vector<GroupCommitRun>& commits, const DeltaRun& delta) {
  obs::MetricsRegistry reg;
  reg.SetInfo("bench.name", "micro_storage_backends");
  for (const BackendRun& r : runs) {
    const std::string base = "backends." + r.name + ".";
    reg.SetGauge(base + "put_ops_sec", r.put_ops_sec);
    reg.SetGauge(base + "get_ops_sec", r.get_ops_sec);
    reg.SetGauge(base + "delete_ops_sec", r.delete_ops_sec);
    reg.SetGauge(base + "recovery_sec", r.recovery_sec);
    reg.SetCounter(base + "recovered", r.recovered);
    reg.SetCounter(base + "log_bytes_written", r.io.log_bytes_written);
    reg.SetCounter(base + "bytes_flushed", r.io.bytes_flushed);
    reg.SetCounter(base + "bytes_read", r.io.bytes_read);
    reg.SetCounter(base + "fsyncs", r.io.fsyncs);
  }
  for (const TransferRun& t : transfers) {
    const std::string base = "transfer." + t.name + ".";
    reg.SetGauge(base + "transfers_sec", t.transfers_sec);
    reg.SetCounter(base + "streamed_bytes", t.streamed_bytes);
    reg.SetCounter(base + "delta_transfers", t.delta_transfers);
    reg.SetCounter(base + "intact", t.intact);
  }
  for (const GroupCommitRun& g : commits) {
    const std::string base = "group_commit." + g.name + ".";
    reg.SetCounter(base + "solo_fsyncs", g.solo_fsyncs);
    reg.SetCounter(base + "grouped_fsyncs", g.grouped_fsyncs);
    reg.SetCounter(base + "group_commits", g.group_commits);
    reg.SetCounter(base + "coalesced_fsyncs", g.coalesced);
  }
  reg.SetCounter("delta_shipping.snapshot_transfers",
                 delta.snapshot_transfers);
  reg.SetCounter("delta_shipping.delta_transfers", delta.delta_transfers);
  reg.SetCounter("delta_shipping.snapshot_bytes", delta.snapshot_bytes);
  reg.SetCounter("delta_shipping.delta_bytes", delta.delta_bytes);
  reg.SetFlag("delta_shipping.delta_smaller",
              delta.delta_bytes < delta.snapshot_bytes);
  return reg;
}

}  // namespace
}  // namespace skute

int main(int argc, char** argv) {
  using namespace skute;
  const scenario::RunOverrides args = scenario::ParseOverrides(argc, argv);
  if (!args.placement.empty()) {
    std::fprintf(stderr,
                 "warning: --placement is not supported by this bench "
                 "(ignored)\n");
  }
  if (!args.trace.empty()) obs::Tracer::Global().Start();

  const std::string tmp_root =
      (std::filesystem::temp_directory_path() /
       ("skute_storage_bench_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(tmp_root);

  scenario::PrintHeader(
      "micro_storage_backends — pluggable storage engines",
      "replica placement is only priced correctly once transfers and "
      "maintenance hit a real persistence layer");
  std::printf("single-backend workload: %d puts/gets, %d deletes, "
              "then native recovery\n", kOps, kOps / 4);

  std::vector<BackendConfig> configs(4);
  configs[0].kind = BackendKind::kMemory;
  configs[1].kind = BackendKind::kDurable;
  configs[2].kind = BackendKind::kFileSegment;
  configs[2].data_dir = tmp_root + "/single";
  configs[3].kind = BackendKind::kMmap;
  configs[3].data_dir = tmp_root + "/single_mmap";

  scenario::PrintSection("ops/sec + recovery per backend");
  std::vector<BackendRun> runs;
  for (const BackendConfig& config : configs) {
    runs.push_back(RunSingleBackend(config, tmp_root));
    PrintRun(runs.back());
  }

  scenario::PrintSection("1000-server transfer workload (snapshot streaming)");
  std::printf("%d servers x %d-record partitions, %d copy/move transfers\n",
              kServers, kRecordsPerPartition, kTransfers);
  std::vector<TransferRun> transfers;
  for (BackendConfig config : configs) {
    if (config.kind == BackendKind::kFileSegment) {
      config.data_dir = tmp_root + "/cluster";
    } else if (config.kind == BackendKind::kMmap) {
      config.data_dir = tmp_root + "/cluster_mmap";
    }
    transfers.push_back(RunTransferWorkload(config));
    const TransferRun& t = transfers.back();
    std::printf("%-8s %9.0f transfers/s  streamed %llu B  "
                "(%llu delta)  intact %zu/%d\n",
                t.name.c_str(), t.transfers_sec,
                static_cast<unsigned long long>(t.streamed_bytes),
                static_cast<unsigned long long>(t.delta_transfers),
                t.intact, kServers);
  }

  scenario::PrintSection("group-commit fsync rate (I/O offload pool)");
  std::vector<GroupCommitRun> commits;
  for (const BackendConfig& config : configs) {
    if (config.kind == BackendKind::kMemory) continue;
    BackendConfig c = config;
    if (!c.data_dir.empty()) c.data_dir += "_gc";
    commits.push_back(
        RunGroupCommit(c, tmp_root + "/gc_" + BackendKindName(c.kind)));
    const GroupCommitRun& g = commits.back();
    std::printf("%-8s fsyncs %6llu solo -> %5llu grouped  "
                "(%llu group commits absorbed %llu)\n",
                g.name.c_str(),
                static_cast<unsigned long long>(g.solo_fsyncs),
                static_cast<unsigned long long>(g.grouped_fsyncs),
                static_cast<unsigned long long>(g.group_commits),
                static_cast<unsigned long long>(g.coalesced));
  }

  scenario::PrintSection("delta vs snapshot replication (log shipping)");
  const DeltaRun delta = RunDeltaWorkload();
  std::printf(
      "%d cold copies: %llu B   %d delta rounds x %d servers: %llu B "
      "(%llu delta transfers)\n",
      kServers, static_cast<unsigned long long>(delta.snapshot_bytes),
      kDeltaRounds, kServers,
      static_cast<unsigned long long>(delta.delta_bytes),
      static_cast<unsigned long long>(delta.delta_transfers));

  scenario::ShapeChecks checks;
  const size_t expected = static_cast<size_t>(kOps - kOps / 4);
  for (const BackendRun& r : runs) {
    checks.Check(r.name + ": live set correct after load+delete",
                 r.final_count == expected,
                 std::to_string(r.final_count) + " == " +
                     std::to_string(expected));
    checks.Check(r.name + ": recovery rebuilds every live record",
                 r.recovered == expected,
                 std::to_string(r.recovered) + " records recovered in " +
                     scenario::Fmt(r.recovery_sec, 4) + "s");
  }
  checks.Check("memory backend does no log I/O",
               runs[0].io.log_bytes_written == 0, "baseline is free");
  checks.Check("durable backend logs every mutation",
               runs[1].io.log_bytes_written > 0, "WAL-then-apply");
  checks.Check("file backend flushes what it logs",
               runs[2].io.log_bytes_written > 0 &&
                   runs[2].io.bytes_flushed >= runs[2].io.log_bytes_written,
               "append -> fflush per record");
  checks.Check("mmap backend reads through the map",
               runs[3].io.bytes_read > 0,
               std::to_string(runs[3].io.bytes_read) + " bytes");
  for (const TransferRun& t : transfers) {
    checks.Check(t.name + ": transfers streamed real snapshot bytes",
                 t.streamed_bytes > 0,
                 std::to_string(t.streamed_bytes) + " bytes");
    checks.Check(t.name + ": every partition intact at its final holder",
                 t.intact == static_cast<size_t>(kServers),
                 std::to_string(t.intact) + "/" +
                     std::to_string(kServers));
  }
  for (const GroupCommitRun& g : commits) {
    checks.Check(g.name + ": group commit reduces the fsync rate",
                 g.grouped_fsyncs < g.solo_fsyncs && g.coalesced > 0,
                 std::to_string(g.solo_fsyncs) + " -> " +
                     std::to_string(g.grouped_fsyncs) + " (" +
                     std::to_string(g.coalesced) + " absorbed)");
  }
  checks.Check("cold copies ship full snapshots",
               delta.snapshot_transfers ==
                   static_cast<uint64_t>(kServers) &&
                   delta.snapshot_bytes > 0,
               std::to_string(delta.snapshot_transfers) + " snapshots");
  checks.Check("warm re-syncs ship incremental deltas",
               delta.delta_transfers ==
                   static_cast<uint64_t>(kDeltaRounds * kServers),
               std::to_string(delta.delta_transfers) + " deltas");
  checks.Check("deltas move fewer bytes than snapshots",
               delta.delta_bytes > 0 &&
                   delta.delta_bytes < delta.snapshot_bytes,
               std::to_string(delta.delta_bytes) + " < " +
                   std::to_string(delta.snapshot_bytes));

  const obs::MetricsRegistry registry =
      BuildBenchRegistry(runs, transfers, commits, delta);
  const std::string json_path =
      args.out.empty() ? "BENCH_storage.json" : args.out;
  const bool json_ok = registry.WriteJson(json_path).ok();
  std::printf("%s %s\n", json_ok ? "wrote" : "FAILED to write",
              json_path.c_str());
  if (!args.metrics_json.empty()) {
    const bool extra_ok = registry.WriteJson(args.metrics_json).ok();
    std::printf("%s %s\n", extra_ok ? "wrote" : "FAILED to write",
                args.metrics_json.c_str());
  }

  if (!args.trace.empty()) {
    obs::Tracer::Global().Stop();
    const Status written = obs::Tracer::Global().WriteChromeTrace(args.trace);
    if (!written.ok()) {
      std::fprintf(stderr, "writing --trace=%s failed: %s\n",
                   args.trace.c_str(), written.ToString().c_str());
    } else {
      std::printf("trace written to %s (%zu spans); load it in Perfetto or "
                  "chrome://tracing\n",
                  args.trace.c_str(), obs::Tracer::Global().event_count());
    }
  }
  const int failures = checks.Summarize();
  std::error_code ec;
  std::filesystem::remove_all(tmp_root, ec);
  return failures;
}
