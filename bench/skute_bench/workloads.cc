#include "workloads.h"

#include "open_loop_client.h"
#include "skute/scenario/registry.h"

namespace skute_bench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md;
// the comments here say what each one stresses.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // The decision plane at scale: 10000 servers, 90000 vnodes, no events,
  // no backends, no wire. Set-up (~17 s) is dominated by the bulk load's
  // interleaved quiet epochs, which is what limits it to two rounds.
  Workload steady = {};
  steady.name = "steady_10k";
  steady.scenario = "steady_state_10k";
  steady.threads = 4;
  steady.warmup_steps = 20;
  steady.fixed_steps = 100;
  steady.min_rounds = 2;
  steady.deterministic = true;
  all.push_back(steady);

  // Routing, repair/execute and the economy under a 61x spike with 20
  // servers failing mid-ramp, while tenants' wire ops wait for the
  // between-epoch serve window.
  Workload flash = {};
  flash.name = "flash_failure";
  flash.scenario = "flash_crowd_failure";
  flash.threads = 2;
  flash.fixed_steps = 400;
  flash.min_rounds = 3;
  flash.preload_keys = 10000;
  flash.client_rate = 1000.0;
  // The 4-replica ring: 20 of 200 servers failing loses whole partitions
  // of the 2- and 3-replica rings, and a tenant op on a lost partition
  // fails by design. The top SLA class is the one that must ride through.
  flash.wire_ring = 2;
  all.push_back(flash);

  // Writes beside reads on a fleet where every fourth server keeps a WAL:
  // the backends, the I/O pool and the durability stage.
  Workload ingest = {};
  ingest.name = "ingest_durable";
  ingest.scenario = "hetero_backend_fleet";
  ingest.threads = 2;
  ingest.fixed_steps = 100;
  ingest.min_rounds = 3;
  ingest.deterministic = true;
  ingest.inserts_per_epoch = 500;
  ingest.insert_bytes = 256;
  ingest.io_threads = 2;
  ingest.log_shipping = true;
  all.push_back(ingest);

  // The serving path: 16 servers whose epochs cost ~0.1 ms, so parse,
  // dispatch, ServeGet/Put, encode and write dominate.
  Workload wire = {};
  wire.name = "wire_tiny";
  wire.scenario = nullptr;
  wire.threads = 1;
  wire.min_rounds = 3;
  wire.preload_keys = 100000;
  wire.client_rate = 20000.0;
  all.push_back(wire);

  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const skute::scenario::ScenarioSpec* ScenarioOf(const Workload& workload) {
  if (workload.scenario == nullptr) return nullptr;
  skute::scenario::RegisterBuiltinScenarios();
  const auto spec =
      skute::scenario::ScenarioRegistry::Global().Find(workload.scenario);
  return spec.ok() ? *spec : nullptr;
}

WireRings WireRingsOf(const Workload& workload, uint32_t ring_count) {
  if (workload.wire_ring < 0) return {0, ring_count};
  return {static_cast<uint32_t>(workload.wire_ring), 1};
}

skute::Status SetUp(const Workload& workload, uint64_t seed,
                    std::unique_ptr<skute::Simulation>* out) {
  const skute::scenario::ScenarioSpec* spec = ScenarioOf(workload);
  if (workload.scenario != nullptr && spec == nullptr) {
    return skute::Status::NotFound(std::string("scenario ") +
                                   workload.scenario + " is not registered");
  }
  skute::SimConfig config =
      spec != nullptr ? spec->config() : skute::SimConfig::Tiny();
  config.seed = seed;
  config.store.epoch.threads = workload.threads;
  // Wire PUTs, preloaded keys and real-value inserts all need the bytes.
  config.store.track_real_data = workload.preload_keys > 0 ||
                                 workload.client_rate > 0 ||
                                 workload.inserts_per_epoch > 0;
  config.store.durability.io_threads = workload.io_threads;
  config.store.durability.log_shipping = workload.log_shipping;

  auto sim = std::make_unique<skute::Simulation>(std::move(config));
  SKUTE_RETURN_IF_ERROR(sim->Initialize());
  if (spec != nullptr) {
    for (const skute::SimEvent& event : spec->timeline) {
      sim->ScheduleEvent(event);
    }
    if (auto schedule = spec->rate.Build()) {
      sim->SetRateSchedule(std::move(schedule));
    }
    if (spec->inserts.has_value()) sim->EnableInserts(*spec->inserts);
  }
  if (workload.inserts_per_epoch > 0) {
    skute::InsertWorkloadOptions inserts;
    inserts.inserts_per_epoch = workload.inserts_per_epoch;
    inserts.real_value_bytes = workload.insert_bytes;
    sim->EnableInserts(inserts);
  }
  // The wire protocol names a ring by its id; the client assumes ids are
  // the ring indexes 0..n-1.
  const auto ring_count = static_cast<uint32_t>(sim->rings().size());
  for (uint32_t i = 0; i < ring_count; ++i) {
    if (sim->rings()[i] != i) {
      return skute::Status::Internal("ring ids are not 0..n-1");
    }
  }
  const WireRings rings = WireRingsOf(workload, ring_count);
  if (rings.first + rings.count > ring_count) {
    return skute::Status::InvalidArgument("wire ring out of range");
  }
  for (uint64_t k = 0; k < workload.preload_keys; ++k) {
    SKUTE_RETURN_IF_ERROR(sim->store().Put(
        RingOfKey(k, rings.first, rings.count), KeyName(k), PreloadValue(k)));
  }
  sim->Run(workload.warmup_steps);
  *out = std::move(sim);
  return skute::Status::OK();
}

}  // namespace skute_bench
