#include "skute/scenario/runner.h"

#include <cstdio>
#include <iostream>

#include <unistd.h>

#include <memory>

#include "skute/chaos/fault_plan.h"
#include "skute/net/loadgen.h"
#include "skute/net/service.h"
#include "skute/obs/adapters.h"
#include "skute/obs/flight_recorder.h"
#include "skute/obs/metrics_registry.h"
#include "skute/obs/trace.h"
#include "skute/scenario/registry.h"
#include "skute/scenario/report.h"

namespace skute::scenario {

ScenarioRunner::Outcome ScenarioRunner::Execute(const ScenarioSpec& spec,
                                                const RunOverrides& overrides,
                                                const Options& options) {
  Outcome outcome;
  if (spec.custom_main) {
    outcome.status = Status::FailedPrecondition(
        "scenario '" + spec.name +
        "' is a custom-main experiment; run it via RunMain");
    return outcome;
  }

  SimConfig config = spec.config();
  ApplyOverrides(&config, overrides, spec.name);
  const int epochs =
      overrides.epochs > 0 ? overrides.epochs : spec.default_epochs;

  Simulation sim(std::move(config));

  // Chaos must be armed before Initialize (the director wraps every
  // backend the store creates). An unknown plan fails the run loudly —
  // a typo'd --fault must never silently run fault-free.
  chaos::FaultPlan fault_plan;
  if (!overrides.fault.empty() && overrides.fault != "none") {
    Result<chaos::FaultPlan> plan = chaos::FaultPlan::Named(overrides.fault);
    if (!plan.ok()) {
      std::fprintf(stderr, "--fault=%s failed: %s\n",
                   overrides.fault.c_str(),
                   plan.status().ToString().c_str());
      outcome.status = plan.status();
      return outcome;
    }
    fault_plan = std::move(*plan);
    const Status armed = sim.EnableChaos(fault_plan);
    if (!armed.ok()) {
      outcome.status = armed;
      return outcome;
    }
    if (options.print) {
      std::printf("chaos armed: fault plan '%s'\n",
                  fault_plan.name().c_str());
    }
  }

  const Status init = sim.Initialize();
  if (!init.ok()) {
    if (options.print) {
      std::printf("initialization failed: %s\n", init.ToString().c_str());
    }
    outcome.status = init;
    return outcome;
  }

  for (const SimEvent& event : spec.timeline) sim.ScheduleEvent(event);
  if (auto schedule = spec.rate.Build()) {
    sim.SetRateSchedule(std::move(schedule));
  }
  if (overrides.real_data > 0) {
    // Real-data mode: keep the scenario's insert shape (or a default one
    // when it defines none) but make every insert carry a real value, so
    // backends — and through them the durability plane — see the bytes.
    InsertWorkloadOptions inserts =
        spec.inserts.value_or(InsertWorkloadOptions{});
    inserts.real_value_bytes = overrides.real_data;
    sim.EnableInserts(inserts);
  } else if (spec.inserts.has_value()) {
    sim.EnableInserts(*spec.inserts);
  }
  if (spec.before_run && options.print) {
    spec.before_run(ScenarioContext{sim, overrides, epochs});
  }

  // Service plane: bind the acceptor and register the between-epochs
  // serve window before the first Step, so live connections get pumped
  // from the very first EndEpoch. The optional in-process loadgen makes
  // `--serve --net-clients=N` a self-contained live-traffic run.
  std::unique_ptr<net::NetService> service;
  std::unique_ptr<net::LoadGen> loadgen;
  if (overrides.serve_port >= 0) {
    net::NetService::Options net_options;
    net_options.acceptor.port = overrides.serve_port;
    service = std::make_unique<net::NetService>(&sim.store(), net_options);
    const Status started = service->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "--serve failed: %s\n",
                   started.ToString().c_str());
      outcome.status = started;
      return outcome;
    }
    if (options.print) {
      std::printf("service plane listening on 127.0.0.1:%d\n",
                  service->port());
    }
    if (overrides.net_clients > 0) {
      net::LoadGen::Options lg;
      lg.port = service->port();
      lg.clients = overrides.net_clients;
      lg.seed = overrides.seed;
      lg.chaos_reset_per_mille = fault_plan.conn_reset_per_mille;
      lg.chaos_stall_ms = fault_plan.client_stall_ms;
      lg.rings.clear();
      const size_t rings = sim.store().catalog().ring_count();
      for (RingId r = 0; r < rings; ++r) lg.rings.push_back(r);
      loadgen = std::make_unique<net::LoadGen>(lg);
      const Status lg_started = loadgen->Start();
      if (!lg_started.ok()) {
        outcome.status = lg_started;
        return outcome;
      }
    }
  } else if (overrides.net_clients > 0) {
    std::fprintf(stderr,
                 "warning: --net-clients needs --serve; no load generated\n");
  }

  // The flight recorder snapshots every epoch's stage timeline and
  // decision/executor counters; the ring is only rendered when something
  // goes wrong below, so a green run pays one struct copy per epoch.
  obs::FlightRecorder recorder;
  const auto dump_flight = [&](const std::string& reason) {
    std::ostream* sink =
        options.flight_dump != nullptr ? options.flight_dump : &std::cerr;
    recorder.Dump(sink, reason);
  };

  for (int e = 0; e < epochs; ++e) {
    sim.Step();
    recorder.RecordFrom(sim.store(), sim.run_epoch());
    if (spec.stop_when && spec.stop_when(sim)) break;
  }
  const auto& series = sim.metrics().series();
  outcome.epochs_run = static_cast<int>(series.size());
  if (options.chaos_out != nullptr) *options.chaos_out = sim.chaos_stats();

  // Wind the service plane down before reporting: stop the clients,
  // keep pumping serve windows until their in-flight ops are answered
  // (closed-loop clients can only finish if the server keeps serving),
  // then drain the acceptor so every response is flushed.
  net::LoadGenReport lg_report;
  if (loadgen != nullptr) {
    loadgen->RequestStop();
    for (int i = 0; i < 5000 && !loadgen->Finished(); ++i) {
      service->ServeWindow();
      ::usleep(1000);
    }
    lg_report = loadgen->Join();
  }
  if (service != nullptr) {
    service->Shutdown();
    if (options.print) {
      const NetStats net = sim.store().net_lifetime();
      std::printf(
          "service plane: %llu ops served (%llu ok, %llu not_found, "
          "%llu error), %llu protocol errors, %llu conns (%llu shed)\n",
          static_cast<unsigned long long>(net.ops),
          static_cast<unsigned long long>(net.ops_ok),
          static_cast<unsigned long long>(net.ops_not_found),
          static_cast<unsigned long long>(net.ops_error),
          static_cast<unsigned long long>(net.protocol_errors),
          static_cast<unsigned long long>(net.conns_accepted),
          static_cast<unsigned long long>(net.conns_shed));
      if (loadgen != nullptr) {
        std::printf(
            "loadgen: %llu ops at %.0f ops/sec, latency p50=%.2fms "
            "p95=%.2fms p99=%.2fms (%llu transport errors, "
            "%llu reconnects)\n",
            static_cast<unsigned long long>(lg_report.ops),
            lg_report.OpsPerSec(), lg_report.latency_ms.Percentile(50),
            lg_report.latency_ms.Percentile(95),
            lg_report.latency_ms.Percentile(99),
            static_cast<unsigned long long>(lg_report.transport_errors),
            static_cast<unsigned long long>(lg_report.reconnects));
      }
    }
  }

  if (sim.chaos_enabled() && options.print) {
    const chaos::ChaosStats cs = sim.chaos_stats();
    std::printf(
        "chaos: %llu faults fired (%llu fsync failures, %llu torn "
        "transfers, %llu slow flushes, %llu partitions applied / %llu "
        "healed)\n",
        static_cast<unsigned long long>(cs.total_fired()),
        static_cast<unsigned long long>(cs.fsync_failures),
        static_cast<unsigned long long>(cs.torn_transfers),
        static_cast<unsigned long long>(cs.slow_flushes),
        static_cast<unsigned long long>(cs.partitions_applied),
        static_cast<unsigned long long>(cs.partitions_healed));
  }

  if (options.print) {
    PrintSection("series (CSV, sampled)");
    const int sample = overrides.full_csv ? 1
                       : overrides.sample_every > 0 ? overrides.sample_every
                                                    : spec.default_sample;
    PrintSampledCsv(sim.metrics(), sample);
  }
  if (options.csv_capture != nullptr) {
    sim.metrics().WriteCsv(options.csv_capture);
  }
  if (!overrides.out.empty()) {
    const Status written = sim.metrics().WriteCsv(overrides.out);
    if (!written.ok()) {
      std::fprintf(stderr, "writing --out=%s failed: %s\n",
                   overrides.out.c_str(), written.ToString().c_str());
      outcome.status = written;
      return outcome;
    }
    if (options.print) {
      std::printf("full CSV written to %s\n", overrides.out.c_str());
    }
  }
  if (!overrides.metrics_json.empty()) {
    obs::MetricsRegistry registry;
    registry.SetInfo("scenario", spec.name);
    registry.SetCounter("epochs_run",
                        static_cast<uint64_t>(series.size()));
    obs::RegisterStoreSnapshot(&registry, "store", sim.store());
    if (loadgen != nullptr) {
      registry.SetCounter("loadgen.clients",
                          static_cast<uint64_t>(overrides.net_clients));
      registry.SetCounter("loadgen.ops", lg_report.ops);
      registry.SetCounter("loadgen.ok", lg_report.ok);
      registry.SetCounter("loadgen.not_found", lg_report.not_found);
      registry.SetCounter("loadgen.errors", lg_report.errors);
      registry.SetCounter("loadgen.transport_errors",
                          lg_report.transport_errors);
      registry.SetCounter("loadgen.reconnects", lg_report.reconnects);
      registry.SetCounter("loadgen.chaos_resets", lg_report.chaos_resets);
      registry.SetGauge("loadgen.seconds", lg_report.seconds);
      registry.SetGauge("loadgen.ops_per_sec", lg_report.OpsPerSec());
      registry.histogram("loadgen.latency_ms").Merge(lg_report.latency_ms);
    }
    if (sim.chaos_enabled()) {
      registry.SetInfo("chaos.plan", fault_plan.name());
      obs::RegisterChaosStats(&registry, "chaos", sim.chaos_stats());
    }
    const Status written = registry.WriteJson(overrides.metrics_json);
    if (!written.ok()) {
      std::fprintf(stderr, "writing --metrics-json=%s failed: %s\n",
                   overrides.metrics_json.c_str(),
                   written.ToString().c_str());
      outcome.status = written;
      return outcome;
    }
    if (options.print) {
      std::printf("metrics snapshot written to %s\n",
                  overrides.metrics_json.c_str());
    }
  }

  const ScenarioContext ctx{sim, overrides,
                            static_cast<int>(series.size())};
  // The skip follows the planned run length, not the rows produced: a
  // run that stop_when ended early is a finished run and is judged.
  if (spec.checks_require_epochs > 0 &&
      epochs <= spec.checks_require_epochs) {
    if (options.print) {
      std::printf("run too short for the %s summary (need > %llu epochs, "
                  "have %d); skipping shape checks\n",
                  spec.name.c_str(),
                  static_cast<unsigned long long>(
                      spec.checks_require_epochs),
                  epochs);
    }
    return outcome;
  }

  if (spec.summarize && options.print) spec.summarize(ctx);

  ShapeChecks printer;
  for (const ShapeCheckSpec& check : spec.checks) {
    const ShapeCheckResult result = check.eval(ctx);
    printer.Check(check.name, result.pass, result.detail);
    if (!result.pass) ++outcome.failed_checks;
  }
  if (options.print && !spec.checks.empty()) {
    (void)printer.Summarize();
  }
  if (outcome.failed_checks > 0) {
    dump_flight(std::to_string(outcome.failed_checks) +
                " shape check(s) failed in " + spec.name);
  }
  return outcome;
}

int ScenarioRunner::RunMain(const ScenarioSpec& spec,
                            const RunOverrides& overrides) {
  PrintHeader(spec.title, spec.claim);
  const bool tracing = !overrides.trace.empty();
  if (tracing) obs::Tracer::Global().Start();

  int code = 0;
  if (spec.custom_main) {
    code = spec.custom_main(overrides);
  } else {
    const Outcome outcome = Execute(spec, overrides);
    code = !outcome.status.ok() ? 1 : outcome.failed_checks;
  }

  if (tracing) {
    obs::Tracer::Global().Stop();
    const Status written =
        obs::Tracer::Global().WriteChromeTrace(overrides.trace);
    if (!written.ok()) {
      std::fprintf(stderr, "writing --trace=%s failed: %s\n",
                   overrides.trace.c_str(), written.ToString().c_str());
      if (code == 0) code = 1;
    } else {
      std::printf(
          "trace written to %s (%zu spans); load it in Perfetto or "
          "chrome://tracing\n",
          overrides.trace.c_str(), obs::Tracer::Global().event_count());
    }
  }
  return code;
}

int RunRegisteredScenario(const std::string& name, int argc, char** argv) {
  RegisterBuiltinScenarios();
  const auto spec = ScenarioRegistry::Global().Find(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const RunOverrides overrides = ParseOverrides(argc, argv);
  return ScenarioRunner::RunMain(**spec, overrides);
}

}  // namespace skute::scenario
