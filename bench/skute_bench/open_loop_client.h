#ifndef SKUTE_BENCH_OPEN_LOOP_CLIENT_H_
#define SKUTE_BENCH_OPEN_LOOP_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "skute/common/histogram.h"
#include "skute/common/status.h"
#include "skute/ring/partition.h"

namespace skute_bench {

/// The wire mix of every workload with a client: 80% GET and 20% PUT of
/// 64-byte values, zipf 0.99 over kWireKeys keys.
constexpr uint64_t kWireKeys = 10000;
constexpr uint32_t kWireValueBytes = 64;

/// Key `index` of the wire keyspace, the ring it lives on (keys are spread
/// round-robin over rings first_ring .. first_ring+rings-1) and the value
/// the set-up preload gives it. Shared by the preload and the client, so
/// the client knows the expected bytes of every GET.
std::string KeyName(uint64_t index);
skute::RingId RingOfKey(uint64_t index, uint32_t first_ring, uint32_t rings);
std::string PreloadValue(uint64_t index);

struct ClientOptions {
  int port = 0;
  /// Open loop: op i is due at start + i / rate, whatever the replies do.
  double rate = 1000.0;
  uint64_t seed = 1;
  uint32_t first_ring = 0;
  uint32_t rings = 1;
  /// Every key holds PreloadValue(key) when the client starts (otherwise
  /// a GET of a key the client never stored expects NOT_FOUND).
  bool preloaded = false;
};

/// What the client saw. Latency is measured from the op's due time, so a
/// stalled server (or a late generator) shows in it.
struct ClientReport {
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t error_replies = 0;       ///< ERROR answers from the store
  uint64_t transport_failures = 0;  ///< broken connection or bad reply frame
  uint64_t timeouts = 0;
  uint64_t wrong_values = 0;  ///< a GET that disagreed with the last STORED
  skute::Histogram get_ms;
  skute::Histogram put_ms;
  /// Send time minus due time: how far the generator itself fell behind.
  skute::Histogram late_ms;
  uint64_t backlog_max = 0;
  /// Median ops in flight over the first and the last quarter of the send
  /// schedule; the second growing well past the first means the server
  /// does not keep up with the offered rate.
  double backlog_first_quarter = 0.0;
  double backlog_last_quarter = 0.0;
  double send_seconds = 0.0;

  uint64_t failed() const {
    return error_replies + transport_failures + timeouts + wrong_values;
  }
  void Merge(const ClientReport& other);
};

/// \brief Open-loop load generator over the service plane's text protocol:
/// one thread, two non-blocking sockets, requests sent when due and
/// pipelined. All ops on one key use the same connection, so replies to
/// a key arrive in send order and every GET can be checked against the
/// value last acknowledged STORED. While the global tracer records, each
/// completed op is recorded as a bench/client_op span from due to reply.
class OpenLoopClient {
 public:
  explicit OpenLoopClient(ClientOptions options);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Connects every socket (the listener's backlog completes the handshake
  /// before the serve window accepts) and starts the send schedule.
  skute::Status Start();
  /// Sends nothing more; the thread exits once every op is answered or
  /// the timeout passes.
  void StopSending() { stop_.store(true, std::memory_order_release); }
  bool Finished() const { return finished_.load(std::memory_order_acquire); }
  /// Joins the thread and returns the report.
  ClientReport Join();

 private:
  void Run();

  ClientOptions options_;
  ClientReport report_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  std::vector<int> fds_;
  std::thread thread_;
};

}  // namespace skute_bench

#endif  // SKUTE_BENCH_OPEN_LOOP_CLIENT_H_
