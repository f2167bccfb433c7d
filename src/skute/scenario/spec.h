#ifndef SKUTE_SCENARIO_SPEC_H_
#define SKUTE_SCENARIO_SPEC_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "skute/backend/config.h"
#include "skute/sim/config.h"
#include "skute/sim/events.h"
#include "skute/sim/simulation.h"
#include "skute/workload/insertgen.h"
#include "skute/workload/schedule.h"

namespace skute::scenario {

/// \brief Command-line overrides applied on top of a ScenarioSpec: every
/// registered scenario accepts the same flags, whether run through
/// `skute_scenarios --run=NAME` or a legacy bench wrapper binary.
struct RunOverrides {
  int epochs = -1;        ///< -1 = spec default
  uint64_t seed = 42;
  int sample_every = 0;   ///< 0 = spec default; CSV row downsampling
  bool full_csv = false;  ///< print every epoch regardless of sampling
  int threads = 0;        ///< 0 = spec default; EpochOptions::threads
  std::string backend;    ///< "" = spec default; see --backend
  std::string placement;  ///< "" = spec default; "economic" | "static"
  std::string out;        ///< "" = stdout; --out=FILE writes the full CSV
  /// "" = off; --trace=FILE records spans for the whole invocation and
  /// writes Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  std::string trace;
  /// "" = off; --metrics-json=FILE writes the end-of-run MetricsRegistry
  /// snapshot (store counters, stage-time percentiles, routing totals).
  std::string metrics_json;
  /// 0 = off; --real-data=BYTES turns on track_real_data and makes the
  /// insert workload carry real values of BYTES each (enabling a default
  /// insert workload when the scenario has none), so writes actually
  /// flow through the storage backends and the durability plane.
  uint32_t real_data = 0;
  /// -1 = spec default; --io-threads=N sizes the store's background
  /// I/O offload pool (0 disables it).
  int io_threads = -1;
  /// --log-shipping: write real values to the primary replica only and
  /// let the durability stage ship WAL deltas to the secondaries.
  bool log_shipping = false;
  /// -1 = no service plane; --serve=PORT starts a NetService on
  /// 127.0.0.1:PORT (0 picks an ephemeral port, printed at startup) and
  /// pumps live connections in the between-epochs serve window. Implies
  /// track_real_data so wire PUTs round-trip real bytes.
  int serve_port = -1;
  /// 0 = no built-in clients; --net-clients=N runs an in-process
  /// LoadGen with N closed-loop client threads against the served port
  /// for the whole run (requires --serve).
  int net_clients = 0;
  /// "" = no chaos; --fault=PLAN arms a builtin chaos::FaultPlan before
  /// Initialize (storage/routing windows on the event schedule, net
  /// knobs into the loadgen). Unknown names fail the run loudly.
  std::string fault;
};

/// Parses --epochs=N, --seed=S, --sample=K, --csv, --threads=T,
/// --backend=memory|durable|file, --placement=economic|static,
/// --out=FILE, --trace=FILE, --metrics-json=FILE, --real-data=BYTES,
/// --io-threads=N, --log-shipping, --serve[=PORT],
/// --net-clients=N and --fault=PLAN. Unrecognized `--*`
/// arguments warn to stderr (a typo like --backnd=file must not silently
/// run the default). `extra_exact` / `extra_prefix` name additional
/// flags the caller consumes itself (e.g. skute_scenarios' --list /
/// --run=).
RunOverrides ParseOverrides(
    int argc, char** argv,
    const std::vector<std::string>& extra_exact = {},
    const std::vector<std::string>& extra_prefix = {});

/// Resolves a --backend flag value into a BackendConfig. Unknown names
/// warn and fall back to memory. The file backend gets a unique
/// directory under the system temp dir (tagged with `run_tag` so two
/// runs inside one process never share state), removed at process exit.
BackendConfig BackendConfigFromFlag(const std::string& flag,
                                    const std::string& run_tag);

/// Applies the overrides onto a spec-produced config (seed, backend,
/// placement, decision-plane threads). `run_tag` scopes file-backend
/// state, typically the scenario name.
void ApplyOverrides(SimConfig* config, const RunOverrides& overrides,
                    const std::string& run_tag);

/// Warns (stderr) that `flag` was set but this scenario does not honor
/// it — custom-main experiments call it for the overrides they cannot
/// apply, so no accepted flag is ever silently ignored.
void WarnIgnoredFlag(const char* flag, const char* reason);

/// \brief Declarative query-rate schedule: data, not a subclass. The
/// runner materializes it into a RateSchedule at run time.
struct RateSpec {
  enum class Kind {
    kConfigDefault,  ///< keep the simulation's constant base_query_rate
    kConstant,
    kSlashdot,
    kStep,
  };
  Kind kind = Kind::kConfigDefault;
  double base = 0.0;
  double peak = 0.0;
  Epoch start = 0;
  Epoch ramp = 0;
  Epoch decay = 0;
  std::vector<std::pair<Epoch, double>> steps;

  static RateSpec ConfigDefault() { return RateSpec{}; }
  static RateSpec Constant(double rate);
  static RateSpec Slashdot(double base, double peak, Epoch start,
                           Epoch ramp, Epoch decay);
  /// The paper's exact Fig. 4 trace (3000 -> 183000 -> 3000).
  static RateSpec PaperSlashdot() {
    return Slashdot(3000.0, 183000.0, 100, 25, 250);
  }
  static RateSpec Steps(double initial,
                        std::vector<std::pair<Epoch, double>> steps);

  /// nullptr for kConfigDefault (the simulation keeps its constant
  /// default schedule).
  std::unique_ptr<RateSchedule> Build() const;
};

/// \brief Everything a spec hook can see about the live run. `epochs` is
/// the planned run length in `before_run` and the executed length in
/// `summarize`/checks (they differ when `stop_when` fired).
struct ScenarioContext {
  Simulation& sim;
  const RunOverrides& overrides;
  int epochs;
};

/// One qualitative shape assertion evaluated after the run.
struct ShapeCheckResult {
  bool pass = false;
  std::string detail;
};
struct ShapeCheckSpec {
  std::string name;
  std::function<ShapeCheckResult(const ScenarioContext&)> eval;
};

/// \brief A declarative experiment: what the hand-rolled bench mains
/// used to wire imperatively — config deltas, event timeline, rate
/// schedule, insert workload, expected-shape checks — as one value a
/// registry can own. The ScenarioRunner drives the
/// Initialize → Schedule → Run → metrics → shape-check lifecycle.
struct ScenarioSpec {
  /// Registry key and CLI name (e.g. "fig3_elasticity").
  std::string name;
  /// Banner title and the paper claim printed under it.
  std::string title;
  std::string claim;
  /// One-liner for `skute_scenarios --list`.
  std::string description;

  /// Produces the base SimConfig with the scenario's deltas applied;
  /// overrides (seed/backend/placement/threads) land afterwards.
  std::function<SimConfig()> config = [] { return SimConfig::Paper(); };

  int default_epochs = 300;
  int default_sample = 5;

  /// Membership timeline (SimEvent::at is a run epoch).
  std::vector<SimEvent> timeline;
  RateSpec rate;
  std::optional<InsertWorkloadOptions> inserts;

  /// Shape checks (and `summarize`) are skipped uniformly when the run
  /// is planned for <= this many epochs — short --epochs runs smoke the
  /// scenario without tripping out-of-range summaries. A run that
  /// `stop_when` ends early is still judged.
  Epoch checks_require_epochs = 0;

  /// Optional hooks, called in lifecycle order. `before_run` and
  /// `summarize` are *reporting* hooks: skipped entirely on non-printed
  /// (in-process) runs, so they must not mutate the simulation — the
  /// run's state comes from config/timeline/rate/inserts only, which is
  /// what keeps a captured CSV identical to a printed one.
  std::function<void(const ScenarioContext&)> before_run;
  /// Checked after every Step; true ends the run early (e.g. Fig. 5
  /// stops once inserts have been failing for 25 consecutive epochs).
  std::function<bool(const Simulation&)> stop_when;
  std::function<void(const ScenarioContext&)> summarize;
  std::vector<ShapeCheckSpec> checks;

  /// Escape hatch for multi-run experiments (the ablations run whole
  /// simulation matrices): when set, the runner prints the banner and
  /// delegates; every declarative field above is ignored.
  std::function<int(const RunOverrides&)> custom_main;
};

}  // namespace skute::scenario

#endif  // SKUTE_SCENARIO_SPEC_H_
