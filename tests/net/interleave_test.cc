// The service-plane determinism guard. Two contracts:
//
//  1. An inert server (bound, serve window registered, zero traffic)
//     must not perturb the simulation: the metrics CSV is bit-identical
//     with and without --serve, at threads=1 and threads=4.
//  2. With live wire traffic the epoch engine stays deterministic
//     across thread counts: the serve window runs single-threaded
//     between epochs, so identical client byte streams yield identical
//     masked CSVs and identical net/engine counters at threads=1 and
//     threads=N.
//
// Wire GETs also debit the same serve capacity as synthetic queries:
// a live-traffic run serves more load than the inert-server run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "skute/net/service.h"
#include "skute/scenario/runner.h"
#include "skute/scenario/spec.h"
#include "skute/sim/simulation.h"
#include "testutil/csv_mask.h"

namespace skute {
namespace net {
namespace {

scenario::ScenarioSpec BusySpec() {
  scenario::ScenarioSpec spec;
  spec.name = "net_interleave";
  spec.title = "test";
  spec.claim = "none";
  spec.description = "test";
  spec.config = [] { return SimConfig::Tiny(); };
  spec.default_epochs = 30;
  // Membership churn so routing, repair and the executor all run while
  // the serve window is (or is not) registered.
  spec.timeline = {SimEvent::AddServers(8, 4), SimEvent::FailRandom(16, 2)};
  return spec;
}

std::string RunCsv(int threads, bool serve) {
  scenario::RunOverrides overrides;
  overrides.seed = 11;
  overrides.threads = threads;
  // --serve=0 binds an ephemeral port and registers the serve window;
  // no client ever connects, so every poll round is idle.
  overrides.serve_port = serve ? 0 : -1;
  std::ostringstream csv;
  scenario::ScenarioRunner::Options options;
  options.print = false;
  options.csv_capture = &csv;
  const auto outcome =
      scenario::ScenarioRunner::Execute(BusySpec(), overrides, options);
  EXPECT_TRUE(outcome.status.ok());
  return testutil::MaskTimingColumns(csv.str());
}

TEST(NetInterleaveTest, InertServerDoesNotPerturbTheSimulation) {
  const std::string t1_off = RunCsv(1, /*serve=*/false);
  const std::string t1_on = RunCsv(1, /*serve=*/true);
  const std::string t4_off = RunCsv(4, /*serve=*/false);
  const std::string t4_on = RunCsv(4, /*serve=*/true);
  ASSERT_FALSE(t1_off.empty());
  EXPECT_EQ(t1_off, t1_on);
  EXPECT_EQ(t4_off, t4_on);
  EXPECT_EQ(t1_on, t4_on);
}

// --- Live-traffic thread invariance ---------------------------------

int ConnectBlocking(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

std::string RecvExactly(int fd, size_t want) {
  std::string got;
  char buf[4096];
  while (got.size() < want) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout or close: return what we have
    got.append(buf, static_cast<size_t>(n));
  }
  return got;
}

struct LiveRun {
  std::string masked_csv;
  std::string replies;
  NetStats net;
  uint64_t placement_version = 0;
  uint64_t lost_partitions = 0;
  /// Served queries summed over epochs and rings (ring_load_mean is
  /// served queries per online server).
  double served_load = 0.0;
};

double ServedLoad(const Simulation& sim) {
  double sum = 0.0;
  for (const EpochSnapshot& s : sim.metrics().series()) {
    for (const double load : s.ring_load_mean) {
      sum += load * static_cast<double>(s.online_servers);
    }
  }
  return sum;
}

// One wire op per line: PUT/GET/DEL on fresh keys of ring 0, plus a
// couple of NOT_FOUND misses. Every byte is written before the first
// Step, so the whole script is served in the first epoch's serve window
// in every run — the op→epoch assignment is identical regardless of the
// engine's thread count. `traffic` = false runs the same server inert.
LiveRun RunWithLiveTraffic(int threads, bool traffic = true) {
  LiveRun run;
  SimConfig config = SimConfig::Tiny();
  config.seed = 11;
  config.store.epoch.threads = threads;
  // Wire PUTs must round-trip real bytes (the sim default tracks sizes
  // only) — the same switch --serve flips in ApplyOverrides.
  config.store.track_real_data = true;
  Simulation sim(config);
  EXPECT_TRUE(sim.Initialize().ok());

  NetService::Options options;  // ephemeral port
  NetService service(&sim.store(), options);
  EXPECT_TRUE(service.Start().ok());
  if (!traffic) {
    for (int e = 0; e < 12; ++e) sim.Step();
    service.Shutdown();
    run.served_load = ServedLoad(sim);
    return run;
  }

  int fd = ConnectBlocking(service.port());
  std::string script;
  std::string want;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "wire:" + std::to_string(i);
    script += "PUT 0 " + key + " 2\r\nv" + std::to_string(i) + "\r\n";
    want += "STORED\r\n";
    script += "GET 0 " + key + "\r\n";
    want += "VALUE " + key + " 2\r\nv" + std::to_string(i) + "\r\nEND\r\n";
  }
  script += "DEL 0 wire:0\r\n";
  want += "DELETED\r\n";
  script += "GET 0 wire:0\r\n";
  want += "NOT_FOUND\r\n";
  script += "GET 0 never-stored\r\n";
  want += "NOT_FOUND\r\n";
  SendAll(fd, script);
  // Loopback delivery is synchronous in practice; the pause makes the
  // "all bytes buffered before the first serve window" premise sturdy.
  ::usleep(100 * 1000);

  for (int e = 0; e < 12; ++e) sim.Step();

  run.replies = RecvExactly(fd, want.size());
  EXPECT_EQ(run.replies, want) << "threads=" << threads;
  ::close(fd);
  service.Shutdown();

  std::ostringstream csv;
  sim.metrics().WriteCsv(&csv);
  run.masked_csv = testutil::MaskTimingColumns(csv.str());
  run.net = sim.store().net_lifetime();
  run.placement_version = sim.store().placement_version();
  run.lost_partitions = sim.store().lost_partitions();
  run.served_load = ServedLoad(sim);
  return run;
}

TEST(NetInterleaveTest, LiveTrafficKeepsThreadInvariance) {
  const LiveRun t1 = RunWithLiveTraffic(1);
  const LiveRun t4 = RunWithLiveTraffic(4);

  // 19 ops: 8 PUT + 8 GET + DEL + 2 missing GETs.
  EXPECT_EQ(t1.net.ops, 19u);
  EXPECT_EQ(t1.net.ops_ok, 17u);
  EXPECT_EQ(t1.net.ops_not_found, 2u);
  EXPECT_EQ(t1.net.ops_error, 0u);
  EXPECT_EQ(t1.net.protocol_errors, 0u);
  EXPECT_EQ(t1.net.conns_accepted, 1u);

  // The engine's determinism contract holds with the serve loop active:
  // identical byte streams, identical masked CSVs and counters.
  ASSERT_FALSE(t1.masked_csv.empty());
  EXPECT_EQ(t1.masked_csv, t4.masked_csv);
  EXPECT_EQ(t1.replies, t4.replies);
  EXPECT_EQ(t1.net.ops, t4.net.ops);
  EXPECT_EQ(t1.net.ops_ok, t4.net.ops_ok);
  EXPECT_EQ(t1.net.bytes_in, t4.net.bytes_in);
  EXPECT_EQ(t1.net.bytes_out, t4.net.bytes_out);
  EXPECT_EQ(t1.placement_version, t4.placement_version);
  EXPECT_EQ(t1.lost_partitions, t4.lost_partitions);

  // Served ops are visible in the per-epoch CSV: the net_ops column of
  // the first row carries the whole script.
  std::istringstream rows(t1.masked_csv);
  std::string header;
  std::string first_row;
  ASSERT_TRUE(static_cast<bool>(std::getline(rows, header)));
  ASSERT_TRUE(static_cast<bool>(std::getline(rows, first_row)));
  int net_ops_col = -1;
  {
    std::istringstream cols(header);
    std::string name;
    for (int i = 0; std::getline(cols, name, ','); ++i) {
      if (name == "net_ops") net_ops_col = i;
    }
  }
  ASSERT_GE(net_ops_col, 0) << "net_ops column missing from CSV header";
  std::istringstream cols(first_row);
  std::string cell;
  for (int i = 0; i <= net_ops_col; ++i) {
    ASSERT_TRUE(static_cast<bool>(std::getline(cols, cell, ',')));
  }
  EXPECT_EQ(cell, "19");
}

TEST(NetInterleaveTest, WireGetsDebitTheServeCapacity) {
  const LiveRun live = RunWithLiveTraffic(1);
  const LiveRun inert = RunWithLiveTraffic(1, /*traffic=*/false);
  EXPECT_EQ(inert.net.ops, 0u);
  EXPECT_GT(live.served_load, inert.served_load);
}

}  // namespace
}  // namespace net
}  // namespace skute
