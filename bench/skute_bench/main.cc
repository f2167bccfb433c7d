// skute_bench: runs one benchmark workload, checks its outputs and prints
// every end-to-end and per-layer metric as `name value unit`.
//
//   skute_bench --workload=NAME --seed=S [--seconds=N] [--trace=FILE]
//               [--json=FILE] [--commit=SHA] [--fingerprint-dir=DIR]
//
// Each layer is measured from outside: the binary times its own calls into
// public functions (Simulation set-up and Step, the serve window it
// registers, each wire op) and reads the library's public counters as
// deltas over the measured window. Exit status: 0 when every correctness
// gate held, 1 when one failed, 2 on bad usage.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "open_loop_client.h"
#include "skute/common/hash.h"
#include "skute/common/histogram.h"
#include "skute/core/policy.h"
#include "skute/net/service.h"
#include "skute/obs/clock.h"
#include "skute/obs/trace.h"
#include "workloads.h"

namespace skute_bench {
namespace {

using skute::obs::StopWatch;
using skute::obs::Tracer;
using skute::obs::TraceSpan;

/// A run stops adding rounds when the next one might end past this; run.py
/// kills a run after 170 s.
constexpr double kMaxRunSeconds = 150.0;
/// The open-loop generator is valid only while its p99 lateness is below
/// this.
constexpr double kMaxLateP99Ms = 1.0;
/// The parts of a Step (stage sum, residual, serve window) must add up to
/// the mean measured Step within this share.
constexpr double kReconcileTolerance = 0.05;
/// A time-bounded round measures at least this many Steps, so that ten lie
/// beyond their p95.
constexpr int kMinWindowSteps = 200;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  std::string json;
  std::string commit = "unknown";
  std::string fingerprint_dir;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(flags->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      flags->trace = value;
    } else if (key == "--json") {
      flags->json = value;
    } else if (key == "--commit") {
      flags->commit = value;
    } else if (key == "--fingerprint-dir") {
      flags->fingerprint_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !flags->workload.empty();
}

/// Named sums over measured Steps, and deltas of the library's cumulative
/// counters over measured windows, pooled across rounds.
using Counters = std::map<std::string, double>;

/// The library's cumulative public counters, read at a window edge.
Counters ReadCounters(skute::Simulation& sim) {
  Counters c;
  skute::SkuteStore& store = sim.store();
  for (const skute::StageTiming& t :
       store.epoch_pipeline().stage_timings()) {
    c[std::string("engine.") + t.name + "_ms"] = t.total_ms;
  }
  if (const auto* economic = dynamic_cast<const skute::EconomicPolicy*>(
          &store.placement_policy())) {
    const skute::DecisionPlaneStats d = economic->decision_stats();
    c["decision.select_calls"] = d.select_calls;
    c["decision.candidates_scored"] = d.candidates_scored;
    c["decision.full_scan_selects"] = d.full_scan_selects;
    c["decision.partitions_clean"] = d.partitions_clean;
    c["decision.partitions_dirty"] = d.partitions_dirty;
    c["decision.avail_cache_hits"] = d.avail_cache_hits;
    c["decision.avail_cache_misses"] = d.avail_cache_misses;
  }
  const skute::IoStats io = store.io_stats();
  c["io.puts"] = io.puts;
  c["io.log_bytes"] = io.log_bytes_written;
  c["io.fsyncs"] = io.fsyncs;
  c["io.group_commits"] = io.group_commits;
  c["io.coalesced_fsyncs"] = io.coalesced_fsyncs;
  c["io.snapshot_bytes_in"] = io.snapshot_bytes_in;
  c["io.delta_bytes_in"] = io.delta_bytes_in;
  const skute::NetStats net = store.net_lifetime();
  c["net.ops"] = net.ops;
  c["net.protocol_errors"] = net.protocol_errors;
  c["net.conns_shed"] = net.conns_shed;
  c["net.bytes_in"] = net.bytes_in;
  c["net.bytes_out"] = net.bytes_out;
  c["lost_partitions"] = store.lost_partitions();
  return c;
}

void AddDelta(const Counters& after, const Counters& before, Counters* into) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    (*into)[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

double StageTotalMs(skute::Simulation& sim) {
  double total = 0.0;
  for (const skute::StageTiming& t :
       sim.store().epoch_pipeline().stage_timings()) {
    total += t.total_ms;
  }
  return total;
}

/// Outcomes of the Step that just ran, from its metrics row and the
/// routing totals of its epoch (which include the serve window's GETs).
void AddEpochOutcome(skute::Simulation& sim, Counters* t) {
  const skute::EpochSnapshot& row = sim.metrics().last();
  const skute::RouteResult& route = sim.store().last_route();
  (*t)["route.requested"] += route.requested;
  (*t)["route.routed"] += route.routed;
  (*t)["route.lost"] += route.lost;
  (*t)["route.dropped"] += row.queries_dropped;
  (*t)["inserts"] += row.insert_attempted;
  (*t)["insert_failures"] += row.insert_failed;
  for (size_t r = 0; r < row.ring_spend.size(); ++r) {
    (*t)["spend"] += row.ring_spend[r];
    (*t)["sla_miss"] += row.ring_below_threshold[r];
  }
  (*t)["exec.applied"] += row.exec.applied();
  (*t)["exec.blocked_bandwidth"] += row.exec.blocked_bandwidth;
  (*t)["exec.blocked_storage"] += row.exec.blocked_storage;
  (*t)["exec.aborted_stale"] += row.exec.aborted_stale;
}

/// Determinism fingerprint of the run so far, the one the engine
/// determinism test compares: placement version, vnode count and a hash
/// of the metrics CSV with its wall-clock columns (route_ms, stage_*)
/// left out.
std::string Fingerprint(skute::Simulation& sim) {
  std::ostringstream csv;
  sim.metrics().WriteCsv(&csv);
  std::istringstream lines(csv.str());
  std::string line;
  std::string masked;
  std::vector<bool> timing;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string field;
    for (size_t i = 0; std::getline(fields, field, ','); ++i) {
      if (timing.size() <= i) {
        timing.push_back(field == "route_ms" || field.rfind("stage_", 0) == 0);
      }
      if (!timing[i]) masked += field + ',';
    }
    masked += '\n';
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "pv=%llu vnodes=%zu csv=%016llx",
                static_cast<unsigned long long>(
                    sim.store().placement_version()),
                sim.metrics().last().total_vnodes,
                static_cast<unsigned long long>(skute::Hash64(masked)));
  return buf;
}

/// Writes the traced session as Chrome trace-event JSON. The tracer's own
/// writer prints six significant digits, so past one second of session
/// its timestamps round to 10 us or more and children no longer nest
/// inside their parents; these are exact to the nanosecond.
skute::Status WriteTrace(const std::string& path) {
  const std::vector<skute::obs::TraceEvent> events =
      Tracer::Global().MergedEvents();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return skute::Status::Unavailable("cannot open " + path);
  const skute::obs::TimePoint origin =
      events.empty() ? skute::obs::Now() : events.front().start;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < events.size(); ++i) {
    const skute::obs::TraceEvent& e = events[i];
    std::fprintf(out,
                 "%s\n{\"ph\":\"X\",\"pid\":0,\"tid\":%u,\"cat\":\"%s\","
                 "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                 i ? "," : "", e.tid, e.category, e.name,
                 skute::obs::UsBetween(origin, e.start),
                 skute::obs::UsBetween(e.start, e.end));
  }
  std::fprintf(out, "\n]}\n");
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written
             ? skute::Status::OK()
             : skute::Status::Unavailable("cannot write " + path);
}

struct RunState {
  Counters totals;
  std::vector<double> setup_s;
  /// Step times of each untraced round, and of the traced one.
  std::vector<std::vector<double>> round_steps;
  std::vector<double> traced_steps;
  double measured_s = 0.0;
  ClientReport client;
  std::vector<std::string> fingerprints;
  std::vector<std::string> gate_failures;
  /// Why the run does not measure what it should (a late generator, a
  /// growing backlog): a property of the host at the time, not of the
  /// program's outputs, so it does not fail the run.
  std::vector<std::string> invalid_reasons;
  int rounds = 0;
};

void Fail(RunState* st, const std::string& what) {
  std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  st->gate_failures.push_back(what);
}

void Invalid(RunState* st, const std::string& why) {
  std::fprintf(stderr, "RUN INVALID: %s\n", why.c_str());
  st->invalid_reasons.push_back(why);
}

/// One round: set-up, then the measured window (with the wire client, if
/// any), then the client drain and the round's shape checks. With --trace,
/// round 1 is traced, set-up included. Returns false when set-up or the
/// service plane failed.
bool RunRound(const Workload& w, const Flags& flags, int round,
              RunState* st) {
  const bool trace_round = !flags.trace.empty() && round == 1;
  if (trace_round) Tracer::Global().Start();

  std::unique_ptr<skute::Simulation> sim;
  const StopWatch setup_watch;
  {
    TraceSpan span("bench", "setup");
    const skute::Status status = SetUp(w, flags.seed, &sim);
    if (!status.ok()) {
      Fail(st, "set-up failed: " + status.ToString());
      return false;
    }
  }
  st->setup_s.push_back(setup_watch.ElapsedSec());
  ++st->rounds;

  // The service plane's serve window, re-registered so the benchmark times
  // it; NetService::Start registered the undecorated one.
  double serve_ms = 0.0;
  uint64_t serve_windows = 0;
  std::unique_ptr<skute::net::NetService> service;
  std::unique_ptr<OpenLoopClient> client;
  if (w.client_rate > 0) {
    service = std::make_unique<skute::net::NetService>(
        &sim->store(), skute::net::NetService::Options{});
    skute::Status status = service->Start();
    sim->store().epoch_pipeline().SetServeWindow([&] {
      TraceSpan span("bench", "serve_window");
      const StopWatch watch;
      service->ServeWindow();
      serve_ms += watch.ElapsedMs();
      ++serve_windows;
    });
    ClientOptions options;
    options.port = service->port();
    options.rate = w.client_rate;
    options.seed = flags.seed ^ 0x5851f42d4c957f2dull;
    const WireRings rings = WireRingsOf(
        w, static_cast<uint32_t>(sim->rings().size()));
    options.first_ring = rings.first;
    options.rings = rings.count;
    options.preloaded = w.preload_keys >= kWireKeys;
    client = std::make_unique<OpenLoopClient>(options);
    if (status.ok()) status = client->Start();
    if (!status.ok()) {
      Fail(st, "service plane: " + status.ToString());
      return false;
    }
  }

  const Counters before = ReadCounters(*sim);
  const double budget_ms = 1000.0 * flags.seconds / w.min_rounds;
  std::vector<double> step_ms;
  int steps = 0;
  const StopWatch window;
  while (w.fixed_steps > 0
             ? steps < w.fixed_steps
             : steps < kMinWindowSteps || window.ElapsedMs() < budget_ms) {
    const double stages_before = StageTotalMs(*sim);
    const double serve_before = serve_ms;
    const StopWatch watch;
    {
      TraceSpan span("bench", "step", static_cast<uint64_t>(steps));
      sim->Step();
    }
    const double ms = watch.ElapsedMs();
    ++steps;
    st->totals["sim.step_ms"] += ms;
    st->totals["sim.residual_ms"] += ms -
                                     (StageTotalMs(*sim) - stages_before) -
                                     (serve_ms - serve_before);
    AddEpochOutcome(*sim, &st->totals);
    step_ms.push_back(ms);
    // Without shape checks nothing reads the series again; dropping it
    // keeps memory flat however many epochs the window holds.
    if (w.scenario == nullptr) sim->metrics().Clear();
  }
  st->measured_s += window.ElapsedSec();
  if (w.deterministic) st->fingerprints.push_back(Fingerprint(*sim));
  AddDelta(ReadCounters(*sim), before, &st->totals);
  st->totals["steps"] += steps;
  st->totals["net.serve_window_ms"] += serve_ms;
  st->totals["net.serve_windows"] += serve_windows;
  if (trace_round) {
    Tracer::Global().Stop();
    st->traced_steps = std::move(step_ms);
  } else {
    st->round_steps.push_back(std::move(step_ms));
  }

  if (client != nullptr) {
    // Replies are only written in serve windows: keep pumping until every
    // op the client sent is answered.
    client->StopSending();
    const StopWatch drain;
    while (!client->Finished() && drain.ElapsedMs() < 10000.0) {
      service->ServeWindow();
      ::usleep(100);
    }
    st->client.Merge(client->Join());
    service->Shutdown();
  }
  if (trace_round) {
    const skute::Status written = WriteTrace(flags.trace);
    if (!written.ok()) Fail(st, "trace: " + written.ToString());
  }

  if (const skute::scenario::ScenarioSpec* spec = ScenarioOf(w)) {
    skute::scenario::RunOverrides overrides;
    overrides.seed = flags.seed;
    const int epochs = static_cast<int>(sim->metrics().series().size());
    const skute::scenario::ScenarioContext ctx{*sim, overrides, epochs};
    if (epochs <= spec->checks_require_epochs) {
      Fail(st, "run too short for the shape checks of " + spec->name);
    }
    for (const skute::scenario::ShapeCheckSpec& check : spec->checks) {
      const skute::scenario::ShapeCheckResult result = check.eval(ctx);
      if (!result.pass) {
        Fail(st, spec->name + " shape check '" + check.name +
                     "' failed: " + result.detail);
      }
    }
  }
  std::fprintf(stderr,
               "round %d: set-up %.2f s, %d measured steps in %.2f s\n",
               round, st->setup_s.back(), steps, window.ElapsedSec());
  return true;
}

/// Compares the run's fingerprint with the one stored for this workload
/// and seed by an earlier run of the same binary, or stores it.
void CheckFingerprintAcrossRuns(const Workload& w, const Flags& flags,
                                RunState* st) {
  if (flags.fingerprint_dir.empty() || st->fingerprints.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(flags.fingerprint_dir, ec);
  const std::string path = flags.fingerprint_dir + "/" + w.name + "-" +
                           std::to_string(flags.seed) + ".fp";
  std::string stored;
  if (std::ifstream in(path); in && std::getline(in, stored)) {
    if (stored != st->fingerprints.front()) {
      Fail(st, "fingerprint differs from an earlier run with seed " +
                   std::to_string(flags.seed) + ": " + stored + " vs " +
                   st->fingerprints.front());
    }
    return;
  }
  std::ofstream out(path);
  out << st->fingerprints.front() << '\n';
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The Step times the Step metrics are computed from: the fastest
/// observation of equivalent work. Other tenants of a shared host only
/// ever add time, and on a shared 4-vCPU VM they moved a run's speed by a
/// quarter within tens of seconds. Fixed-step workloads repeat identical
/// inputs every round, so each Step's fastest time across rounds is kept.
/// Time-bounded rounds do not repeat Step for Step (the client's
/// wall-clock schedule drives them), so the fastest round is kept whole.
std::vector<double> UnperturbedSteps(
    const Workload& w, const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return {};
  if (w.fixed_steps == 0) {
    const auto rate = [](const std::vector<double>& r) {
      return r.size() / std::accumulate(r.begin(), r.end(), 0.0);
    };
    return *std::max_element(
        rounds.begin(), rounds.end(),
        [&](const auto& a, const auto& b) { return rate(a) < rate(b); });
  }
  std::vector<double> steps = rounds.front();
  for (const std::vector<double>& round : rounds) {
    for (size_t i = 0; i < steps.size(); ++i) {
      steps[i] = std::min(steps[i], round[i]);
    }
  }
  return steps;
}

double StepsPerSecond(const skute::Histogram& step_ms) {
  return Ratio(1000.0 * step_ms.count(), step_ms.sum());
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports kilobytes
}

std::vector<Metric> ComputeMetrics(const Workload& w, RunState& st) {
  Counters& t = st.totals;
  const double steps = t["steps"];
  const auto per_epoch = [&](const char* key) { return Ratio(t[key], steps); };
  const ClientReport& c = st.client;
  std::vector<Metric> m;
  const auto add = [&](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };

  // End to end.
  skute::Histogram step_hist;
  for (double ms : UnperturbedSteps(w, st.round_steps)) step_hist.Add(ms);
  const double epochs_per_s = StepsPerSecond(step_hist);
  add("setup_s", Median(st.setup_s), "s");
  add("epochs_per_s", epochs_per_s, "1/s");
  add("peak_rss_mb", PeakRssMb(), "MB");
  add("rent_per_epoch", per_epoch("spend"), "usd/epoch");

  // engine: mean wall time per measured Step of every pipeline stage.
  double stage_sum = 0.0;
  for (const char* stage :
       {"publish_prices", "route_queries", "record_balances",
        "propose_actions", "execute", "durability", "accounting"}) {
    const std::string key = std::string("engine.") + stage + "_ms";
    const double ms = per_epoch(key.c_str());
    add(key, ms, "ms");
    stage_sum += ms;
  }
  add("engine.stage_sum_ms", stage_sum, "ms");
  const double step_ms = per_epoch("sim.step_ms");
  add("sim.step_ms", step_ms, "ms");
  add("sim.residual_ms", per_epoch("sim.residual_ms"), "ms");
  // Over the Steps epochs_per_s counts. The tail is the highest
  // percentile with at least ten of them beyond it: steady_10k and
  // ingest_durable keep 100 Steps, the others at least 200.
  add("sim.step_p50_ms", step_hist.Percentile(50), "ms");
  add("sim.step_tail_ms",
      step_hist.Percentile(step_hist.count() >= 200 ? 95 : 90), "ms");

  // core/economy decision plane.
  const double selects = t["decision.select_calls"];
  add("decision.select_calls", per_epoch("decision.select_calls"), "1/epoch");
  add("decision.candidates_scored", per_epoch("decision.candidates_scored"),
      "1/epoch");
  add("decision.candidates_per_select",
      Ratio(t["decision.candidates_scored"], selects), "count");
  add("decision.full_scan_selects", per_epoch("decision.full_scan_selects"),
      "1/epoch");
  add("decision.dirty_frac",
      Ratio(t["decision.partitions_dirty"],
            t["decision.partitions_dirty"] + t["decision.partitions_clean"]),
      "ratio");
  add("decision.avail_hit_frac",
      Ratio(t["decision.avail_cache_hits"],
            t["decision.avail_cache_hits"] + t["decision.avail_cache_misses"]),
      "ratio");

  // core executor. step_share is the Amdahl bound on what executor
  // scaling alone can buy.
  const double applied = t["exec.applied"];
  add("exec.applied", per_epoch("exec.applied"), "1/epoch");
  add("exec.blocked_bandwidth", per_epoch("exec.blocked_bandwidth"),
      "1/epoch");
  add("exec.blocked_storage", per_epoch("exec.blocked_storage"), "1/epoch");
  add("exec.aborted_stale", per_epoch("exec.aborted_stale"), "1/epoch");
  add("exec.useful_frac",
      Ratio(applied, applied + t["exec.blocked_bandwidth"] +
                         t["exec.blocked_storage"] + t["exec.aborted_stale"]),
      "ratio");
  add("exec.actions_per_s", Ratio(applied, t["engine.execute_ms"] / 1000.0),
      "1/s");
  add("exec.step_share", Ratio(per_epoch("engine.execute_ms"), step_ms),
      "ratio");

  // core routing.
  add("route.requested", per_epoch("route.requested"), "1/epoch");
  add("route.routed", per_epoch("route.routed"), "1/epoch");
  add("route.dropped", per_epoch("route.dropped"), "1/epoch");
  add("route.lost", per_epoch("route.lost"), "1/epoch");
  add("route.queries_per_ms",
      Ratio(t["route.routed"], t["engine.route_queries_ms"]), "1/ms");

  // backend / io.
  add("io.puts", per_epoch("io.puts"), "1/epoch");
  add("io.log_bytes", per_epoch("io.log_bytes"), "B/epoch");
  add("io.fsyncs", per_epoch("io.fsyncs"), "1/epoch");
  add("io.group_commits", per_epoch("io.group_commits"), "1/epoch");
  add("io.coalesced_fsyncs", per_epoch("io.coalesced_fsyncs"), "1/epoch");
  add("io.snapshot_bytes_in", per_epoch("io.snapshot_bytes_in"), "B/epoch");
  add("io.delta_bytes_in", per_epoch("io.delta_bytes_in"), "B/epoch");
  add("io.delta_frac",
      Ratio(t["io.delta_bytes_in"],
            t["io.delta_bytes_in"] + t["io.snapshot_bytes_in"]),
      "ratio");

  // net.
  add("net.ops", Ratio(t["net.ops"], st.measured_s), "1/s");
  add("net.protocol_errors", t["net.protocol_errors"], "count");
  add("net.conns_shed", t["net.conns_shed"], "count");
  add("net.bytes_in", Ratio(t["net.bytes_in"], st.measured_s), "B/s");
  add("net.bytes_out", Ratio(t["net.bytes_out"], st.measured_s), "B/s");
  add("net.serve_window_ms", per_epoch("net.serve_window_ms"), "ms");
  add("net.ops_per_window", Ratio(t["net.ops"], t["net.serve_windows"]),
      "count");

  // client: the benchmark's open-loop generator.
  add("client.sent", c.sent, "count");
  add("client.completed", c.completed, "count");
  add("client.failed", c.failed(), "count");
  add("client.wrong_values", c.wrong_values, "count");
  add("client.late_p99_ms", c.late_ms.Percentile(99), "ms");
  add("client.backlog_max", c.backlog_max, "count");
  add("client.ops_s", Ratio(c.completed, c.send_seconds), "1/s");
  add("client.get_p50_ms", c.get_ms.Percentile(50), "ms");
  add("client.get_p99_ms", c.get_ms.Percentile(99), "ms");
  add("client.put_p99_ms", c.put_ms.Percentile(99), "ms");

  // Outcomes the paper is about, per round.
  const double attempted =
      t["route.requested"] + t["inserts"] + static_cast<double>(c.sent);
  const double failed = t["route.dropped"] + t["route.lost"] +
                        t["insert_failures"] + static_cast<double>(c.failed());
  add("outcome.fail_frac", Ratio(failed, attempted), "ratio");
  add("outcome.sla_miss_partition_epochs", Ratio(t["sla_miss"], st.rounds),
      "count");
  add("outcome.lost_partitions", Ratio(t["lost_partitions"], st.rounds),
      "count");
  const double user_bytes =
      (t["inserts"] - t["insert_failures"]) * w.insert_bytes;
  add("outcome.write_amp",
      Ratio(t["io.log_bytes"] + t["io.snapshot_bytes_in"] +
                t["io.delta_bytes_in"],
            user_bytes),
      "B/B");

  skute::Histogram traced_hist;
  for (double ms : UnperturbedSteps(w, {st.traced_steps})) {
    traced_hist.Add(ms);
  }
  add("trace.overhead_frac",
      traced_hist.empty() ? 0.0
                          : StepsPerSecond(traced_hist) / epochs_per_s - 1.0,
      "ratio");
  return m;
}

/// Checks over the whole run: wire correctness, the client's validity, and
/// the reconciliation of the per-layer times with the measured Step.
void CheckRun(const Workload& w, const std::vector<Metric>& metrics,
              RunState* st) {
  std::map<std::string, double> v;
  for (const Metric& m : metrics) v[m.name] = m.value;

  const double parts = v["engine.stage_sum_ms"] + v["sim.residual_ms"] +
                       v["net.serve_window_ms"];
  if (std::abs(parts - v["sim.step_ms"]) >
      kReconcileTolerance * v["sim.step_ms"]) {
    Fail(st, "stage sum + residual + serve window = " + std::to_string(parts) +
                 " ms, but the mean measured Step is " +
                 std::to_string(v["sim.step_ms"]) + " ms");
  }
  for (size_t i = 1; i < st->fingerprints.size(); ++i) {
    if (st->fingerprints[i] != st->fingerprints[0]) {
      Fail(st, "same-seed rounds diverged: " + st->fingerprints[0] + " vs " +
                   st->fingerprints[i]);
    }
  }
  if (w.client_rate <= 0) return;
  const ClientReport& c = st->client;
  if (c.wrong_values > 0) {
    Fail(st, std::to_string(c.wrong_values) + " wire GETs returned a value "
                                              "other than the last STORED");
  }
  if (v["net.protocol_errors"] > 0) {
    Fail(st, "the server saw protocol errors");
  }
  if (c.transport_failures + c.timeouts > 0) {
    Fail(st, std::to_string(c.transport_failures) +
                 " transport failures and " + std::to_string(c.timeouts) +
                 " timeouts");
  }
  if (v["client.late_p99_ms"] > kMaxLateP99Ms) {
    Invalid(st, "the open-loop generator ran late: p99 " +
                 std::to_string(v["client.late_p99_ms"]) + " ms");
  }
  // Allow the backlog to double plus 2 ms worth of ops before calling it
  // growth: epochs are not uniform within a round.
  if (c.backlog_last_quarter >
      2.0 * c.backlog_first_quarter + w.client_rate * 0.002) {
    Invalid(st, "the wire backlog grew from " +
                 std::to_string(c.backlog_first_quarter) + " to " +
                 std::to_string(c.backlog_last_quarter) + " ops in flight");
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool WriteJson(const std::string& path, const Workload& w, const Flags& flags,
               const RunState& st, const std::vector<Metric>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const ClientReport& c = st.client;
  const uint64_t inserts = static_cast<uint64_t>(st.totals.at("inserts"));
  const uint64_t insert_failures =
      static_cast<uint64_t>(st.totals.at("insert_failures"));
  char buf[512];
  out << "{\n  \"workload\": \"" << w.name << "\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"seed\": %llu,\n  \"seconds\": %.17g,\n  \"rounds\": "
                "%d,\n",
                static_cast<unsigned long long>(flags.seed), flags.seconds,
                st.rounds);
  out << buf;
  out << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
      << "\", \"compiler\": \"" << JsonEscape(__VERSION__)
      << "\", \"build_type\": \"" << SKUTE_BENCH_BUILD_TYPE
      << "\", \"commit\": \"" << JsonEscape(flags.commit) << "\"},\n";
  const auto list = [&](const std::vector<std::string>& items) {
    out << "[";
    for (size_t i = 0; i < items.size(); ++i) {
      out << (i ? ", " : "") << "\"" << JsonEscape(items[i]) << "\"";
    }
    out << "]";
  };
  out << "  \"correct\": " << (st.gate_failures.empty() ? "true" : "false")
      << ",\n  \"gate_failures\": ";
  list(st.gate_failures);
  out << ",\n  \"valid\": "
      << (st.invalid_reasons.empty() ? "true" : "false")
      << ",\n  \"invalid_reasons\": ";
  list(st.invalid_reasons);
  // attempted: measured Steps, wire ops and real-value inserts; failed:
  // the wire ops and inserts that did not succeed.
  out << ",\n  \"attempted\": "
      << static_cast<uint64_t>(st.totals.at("steps")) + c.sent + inserts
      << ",\n  \"failed\": " << c.failed() + insert_failures
      << ",\n  \"fingerprint\": \""
      << (st.fingerprints.empty() ? "" : st.fingerprints.front())
      << "\",\n  \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i ? "," : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out << buf;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: skute_bench --workload=NAME --seed=S [--seconds=N] "
                 "[--trace=FILE] [--json=FILE] [--commit=SHA] "
                 "[--fingerprint-dir=DIR]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 flags.workload.c_str());
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *workload;

  RunState st;
  const StopWatch run_watch;
  for (int round = 0;; ++round) {
    if (!RunRound(w, flags, round, &st)) return 1;
    const bool more = round + 1 < w.min_rounds ||
                      (w.fixed_steps > 0 && st.measured_s < flags.seconds);
    const double per_round = run_watch.ElapsedSec() / (round + 1);
    if (!more || run_watch.ElapsedSec() + per_round > kMaxRunSeconds) break;
  }
  CheckFingerprintAcrossRuns(w, flags, &st);
  const std::vector<Metric> metrics = ComputeMetrics(w, st);
  CheckRun(w, metrics, &st);

  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!flags.json.empty() && !WriteJson(flags.json, w, flags, st, metrics)) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  return st.gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace skute_bench

int main(int argc, char** argv) { return skute_bench::Main(argc, argv); }
