#include "open_loop_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "skute/common/hash.h"
#include "skute/common/random.h"
#include "skute/obs/clock.h"
#include "skute/obs/trace.h"

namespace skute_bench {

using skute::obs::MsBetween;
using skute::obs::Now;
using skute::obs::TimePoint;

namespace {

constexpr int kConnections = 2;
constexpr double kZipfS = 0.99;
constexpr double kPutFraction = 0.2;
/// An op unanswered this long counts as timed out.
constexpr int kTimeoutMs = 5000;

/// Printable bytes derived from `tag`: distinct tags give distinct values,
/// so a stale or misrouted value cannot pass for the expected one.
std::string FillValue(uint64_t tag, uint32_t bytes) {
  std::string value(bytes, '0');
  for (uint32_t i = 0; i < bytes; ++i) {
    value[i] = "0123456789abcdef"[(tag >> ((i % 16) * 4)) & 0xf];
  }
  return value;
}

struct PendingOp {
  uint64_t key = 0;
  bool put = false;
  TimePoint due{};
  std::string value;  ///< PUT payload: the expected value once STORED
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  std::deque<PendingOp> pending;
};

enum class Reply { kIncomplete, kValue, kStored, kNotFound, kError, kMalformed };

/// Takes the reply at the head of `in`, leaving it in place while
/// incomplete. A VALUE reply's payload goes to `value`.
Reply TakeReply(std::string* in, std::string* value) {
  const size_t crlf = in->find("\r\n");
  if (crlf == std::string::npos) return Reply::kIncomplete;
  if (in->compare(0, 6, "VALUE ") == 0) {
    // VALUE <key> <n>\r\n<n bytes>\r\nEND\r\n
    const size_t space = in->rfind(' ', crlf);
    const size_t n = std::strtoull(in->c_str() + space + 1, nullptr, 10);
    const size_t total = crlf + 2 + n + 7;
    if (in->size() < total) return Reply::kIncomplete;
    if (in->compare(crlf + 2 + n, 7, "\r\nEND\r\n") != 0) {
      return Reply::kMalformed;
    }
    value->assign(*in, crlf + 2, n);
    in->erase(0, total);
    return Reply::kValue;
  }
  Reply reply = Reply::kMalformed;
  if (in->compare(0, crlf, "STORED") == 0) {
    reply = Reply::kStored;
  } else if (in->compare(0, crlf, "NOT_FOUND") == 0) {
    reply = Reply::kNotFound;
  } else if (in->compare(0, 6, "ERROR ") == 0) {
    reply = Reply::kError;
  }
  in->erase(0, crlf + 2);
  return reply;
}

double Median(std::vector<uint32_t> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

std::string KeyName(uint64_t index) { return "bk" + std::to_string(index); }

skute::RingId RingOfKey(uint64_t index, uint32_t first_ring,
                        uint32_t rings) {
  return static_cast<skute::RingId>(first_ring + index % rings);
}

std::string PreloadValue(uint64_t index) {
  return FillValue(skute::Hash64(KeyName(index)), kWireValueBytes);
}

void ClientReport::Merge(const ClientReport& other) {
  sent += other.sent;
  completed += other.completed;
  error_replies += other.error_replies;
  transport_failures += other.transport_failures;
  timeouts += other.timeouts;
  wrong_values += other.wrong_values;
  get_ms.Merge(other.get_ms);
  put_ms.Merge(other.put_ms);
  late_ms.Merge(other.late_ms);
  backlog_max = std::max(backlog_max, other.backlog_max);
  backlog_first_quarter =
      std::max(backlog_first_quarter, other.backlog_first_quarter);
  backlog_last_quarter =
      std::max(backlog_last_quarter, other.backlog_last_quarter);
  send_seconds += other.send_seconds;
}

OpenLoopClient::OpenLoopClient(ClientOptions options)
    : options_(std::move(options)) {}

OpenLoopClient::~OpenLoopClient() {
  if (thread_.joinable()) {
    StopSending();
    thread_.join();
  }
}

skute::Status OpenLoopClient::Start() {
  for (int i = 0; i < kConnections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const std::string reason = std::strerror(errno);
      if (fd >= 0) ::close(fd);
      for (int open_fd : fds_) ::close(open_fd);
      fds_.clear();
      return skute::Status::Unavailable("client connect failed: " + reason);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    fds_.push_back(fd);
  }
  thread_ = std::thread([this] {
    try {
      Run();
    } catch (...) {
      // Out of memory mid-run: report the run broken rather than abort.
      ++report_.transport_failures;
      finished_.store(true, std::memory_order_release);
    }
  });
  return skute::Status::OK();
}

ClientReport OpenLoopClient::Join() {
  if (thread_.joinable()) thread_.join();
  return report_;
}

void OpenLoopClient::Run() {
  const ClientOptions& o = options_;
  ClientReport& r = report_;
  skute::Rng rng(o.seed);

  std::vector<std::string> expected(kWireKeys);
  std::vector<uint8_t> known(kWireKeys, o.preloaded ? 1 : 0);
  if (o.preloaded) {
    for (uint64_t k = 0; k < kWireKeys; ++k) expected[k] = PreloadValue(k);
  }
  std::vector<Conn> conns(fds_.size());
  for (size_t i = 0; i < conns.size(); ++i) conns[i].fd = fds_[i];
  std::vector<pollfd> pfds(conns.size());
  std::vector<uint32_t> backlog;  // ops in flight when each op was sent
  uint64_t in_flight = 0;

  // A failed op counts as missing any latency limit: it enters the
  // latency distribution at the timeout.
  const auto record = [&](const PendingOp& op, TimePoint done, bool failed) {
    const double ms = failed ? kTimeoutMs : MsBetween(op.due, done);
    (op.put ? r.put_ms : r.get_ms).Add(ms);
    if (skute::obs::Tracer::Enabled()) {
      skute::obs::TraceEvent event;
      event.category = "bench";
      event.name = "client_op";
      event.start = op.due;
      event.end = done;
      skute::obs::Tracer::Global().Record(event);
    }
  };
  const auto drop_conn = [&](Conn& c, TimePoint now, uint64_t* counter) {
    for (const PendingOp& op : c.pending) record(op, now, true);
    *counter += c.pending.size();
    in_flight -= c.pending.size();
    c.pending.clear();
    c.out.clear();
    c.out_sent = 0;
    c.in.clear();
    ::close(c.fd);
    c.fd = -1;
  };
  // Matches one reply to the connection's oldest op; false on a reply that
  // cannot answer it (the stream is out of step).
  std::string value;
  const auto complete = [&](Conn& c, Reply reply, TimePoint now) {
    PendingOp op = std::move(c.pending.front());
    bool failed = false;
    if (op.put) {
      if (reply == Reply::kStored) {
        expected[op.key] = std::move(op.value);
        known[op.key] = 1;
      } else if (reply == Reply::kError) {
        ++r.error_replies;
        failed = true;
      } else {
        return false;
      }
    } else if (reply == Reply::kValue) {
      if (!known[op.key] || value != expected[op.key]) {
        ++r.wrong_values;
        failed = true;
      }
    } else if (reply == Reply::kNotFound) {
      if (known[op.key]) {
        ++r.wrong_values;
        failed = true;
      }
    } else if (reply == Reply::kError) {
      ++r.error_replies;
      failed = true;
    } else {
      return false;
    }
    c.pending.pop_front();
    --in_flight;
    ++r.completed;
    record(op, now, failed);
    return true;
  };

  const TimePoint start = Now();
  const double ns_per_op = 1e9 / o.rate;
  const auto due_of = [&](uint64_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<int64_t>(static_cast<double>(i) * ns_per_op));
  };
  uint64_t next = 0;
  bool stopping = false;
  TimePoint stop_at{};

  while (true) {
    TimePoint now = Now();
    if (!stopping && stop_.load(std::memory_order_acquire)) {
      stopping = true;
      stop_at = now;
      r.send_seconds = MsBetween(start, now) / 1000.0;
    }
    if (!stopping) {
      for (TimePoint due = due_of(next); due <= now; due = due_of(++next)) {
        PendingOp op;
        op.key = rng.Zipf(kWireKeys, kZipfS);
        op.put = rng.Bernoulli(kPutFraction);
        op.due = due;
        ++r.sent;
        r.late_ms.Add(MsBetween(due, now));
        backlog.push_back(static_cast<uint32_t>(in_flight));
        r.backlog_max = std::max<uint64_t>(r.backlog_max, in_flight);
        Conn& c = conns[op.key % conns.size()];
        if (c.fd < 0) {
          ++r.transport_failures;
          record(op, now, true);
          continue;
        }
        const std::string key = KeyName(op.key);
        const std::string ring = std::to_string(RingOfKey(op.key, o.first_ring, o.rings));
        if (op.put) {
          op.value = FillValue(
              skute::Hash64(key) ^ (next * 0x9e3779b97f4a7c15ull),
              kWireValueBytes);
          c.out += "PUT " + ring + " " + key + " " +
                   std::to_string(op.value.size()) + "\r\n" + op.value + "\r\n";
        } else {
          c.out += "GET " + ring + " " + key + "\r\n";
        }
        c.pending.push_back(std::move(op));
        ++in_flight;
      }
    }

    for (Conn& c : conns) {
      while (c.fd >= 0 && c.out_sent < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                                 c.out.size() - c.out_sent, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_sent += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          drop_conn(c, Now(), &r.transport_failures);
        }
      }
      if (c.out_sent == c.out.size()) {
        c.out.clear();
        c.out_sent = 0;
      }
    }

    now = Now();
    for (Conn& c : conns) {
      char buf[16384];
      while (c.fd >= 0) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          drop_conn(c, now, &r.transport_failures);
        }
      }
      while (c.fd >= 0 && !c.in.empty()) {
        if (c.pending.empty()) {
          drop_conn(c, now, &r.transport_failures);
          break;
        }
        const Reply reply = TakeReply(&c.in, &value);
        if (reply == Reply::kIncomplete) break;
        if (!complete(c, reply, now)) {
          drop_conn(c, now, &r.transport_failures);
        }
      }
      if (c.fd >= 0 && !c.pending.empty() &&
          MsBetween(c.pending.front().due, now) > kTimeoutMs) {
        drop_conn(c, now, &r.timeouts);
      }
    }

    if (stopping && (in_flight == 0 || MsBetween(stop_at, now) > kTimeoutMs)) {
      for (Conn& c : conns) {
        if (c.fd >= 0) drop_conn(c, now, &r.timeouts);
      }
      break;
    }

    // Sleep until the next op is due or a socket is ready.
    const int64_t wait_ns =
        stopping ? 1000000
                 : std::chrono::duration_cast<std::chrono::nanoseconds>(
                       due_of(next) - Now())
                       .count();
    if (wait_ns > 0) {
      nfds_t nfds = 0;
      for (const Conn& c : conns) {
        if (c.fd < 0) continue;
        pfds[nfds].fd = c.fd;
        pfds[nfds].events =
            static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
        pfds[nfds].revents = 0;
        ++nfds;
      }
      timespec ts;
      ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
      ::ppoll(pfds.data(), nfds, &ts, nullptr);
    }
  }

  const size_t quarter = backlog.size() / 4;
  r.backlog_first_quarter = Median(
      std::vector<uint32_t>(backlog.begin(), backlog.begin() + quarter));
  r.backlog_last_quarter =
      Median(std::vector<uint32_t>(backlog.end() - quarter, backlog.end()));
  finished_.store(true, std::memory_order_release);
}

}  // namespace skute_bench
