#ifndef SKUTE_BENCH_WORKLOADS_H_
#define SKUTE_BENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "skute/common/status.h"
#include "skute/scenario/spec.h"
#include "skute/sim/simulation.h"

namespace skute_bench {

/// \brief One benchmark workload: a registered scenario (config, event
/// timeline, rate schedule and shape checks) plus the benchmark's own
/// set-up extras, engine thread count, measured window and wire client.
/// A run repeats rounds of set-up + measured window with the same seed.
struct Workload {
  const char* name;
  /// Registered scenario the round runs; nullptr = SimConfig::Tiny(),
  /// which has no shape checks.
  const char* scenario;
  /// EpochOptions::threads.
  int threads;
  /// Steps run inside set-up, before the measured window.
  int warmup_steps;
  /// Measured Steps per round: exactly `fixed_steps` when nonzero;
  /// otherwise as many as fit in the round's share of --seconds.
  int fixed_steps;
  /// Rounds per run, at least 2: with --trace, round 1 is traced and the
  /// others are the untraced reference. Fixed-step workloads add rounds
  /// until the measured time reaches --seconds.
  int min_rounds;
  /// The outcome is a pure function of the seed: its fingerprint at the
  /// end of a round must repeat across rounds and runs. Needs fixed_steps.
  bool deterministic;
  /// Real-value inserts per epoch (0 = none) of `insert_bytes` each.
  uint64_t inserts_per_epoch;
  uint32_t insert_bytes;
  /// Durability plane: I/O offload threads and log shipping.
  int io_threads;
  bool log_shipping;
  /// Keys written through SkuteStore::Put during set-up.
  uint64_t preload_keys;
  /// Open-loop wire client: ops per second (0 = no service plane).
  double client_rate;
  /// The ring every wire and preloaded key lives on; -1 spreads the keys
  /// round-robin over all rings.
  int wire_ring = -1;
};

/// The rings wire keys are spread over: [first, first + count).
struct WireRings {
  uint32_t first;
  uint32_t count;
};
WireRings WireRingsOf(const Workload& workload, uint32_t ring_count);

const std::vector<Workload>& Workloads();

/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// The registered scenario a workload runs, or nullptr.
const skute::scenario::ScenarioSpec* ScenarioOf(const Workload& workload);

/// One round's set-up: builds the simulation, initializes it, arms the
/// scenario's events and rate schedule, enables inserts, preloads keys
/// and runs the warm-up Steps.
skute::Status SetUp(const Workload& workload, uint64_t seed,
                    std::unique_ptr<skute::Simulation>* out);

}  // namespace skute_bench

#endif  // SKUTE_BENCH_WORKLOADS_H_
