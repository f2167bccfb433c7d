#ifndef SKUTE_ENGINE_EPOCH_PIPELINE_H_
#define SKUTE_ENGINE_EPOCH_PIPELINE_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "skute/common/histogram.h"
#include "skute/engine/epoch_context.h"
#include "skute/engine/epoch_stage.h"
#include "skute/engine/shard.h"
#include "skute/engine/worker_pool.h"

namespace skute {

/// Wall-time accounting of one pipeline stage (ROADMAP "pipeline-stage
/// metrics"): last run, lifetime totals, and the full per-run
/// distribution (p50/p95/max via `hist`) — surfaced by
/// MetricsCollector::WriteCsv and the obs MetricsRegistry adapters.
struct StageTiming {
  const char* name = "";
  EpochPhase phase = EpochPhase::kBegin;
  double last_ms = 0.0;
  double total_ms = 0.0;
  uint64_t runs = 0;
  /// Every per-run wall time, for percentile queries.
  Histogram hist;
};

/// \brief The ordered stage list that IS the epoch lifecycle:
///
///   kBegin: publish_prices
///   kRoute: route_queries   (once per RouteQueryBatch call, 0..n times)
///   kEnd:   record_balances -> propose_actions -> execute -> accounting
///
/// SkuteStore::BeginEpoch/RouteQueryBatch/EndEpoch are thin delegations
/// into Run(); all pass logic lives in the stages. The pipeline owns the
/// worker pool that the sharded stages fan out on (created lazily once
/// threads > 1).
class EpochPipeline {
 public:
  /// Builds the default six-stage pipeline.
  explicit EpochPipeline(const EpochOptions& options);
  ~EpochPipeline();

  EpochPipeline(const EpochPipeline&) = delete;
  EpochPipeline& operator=(const EpochPipeline&) = delete;

  /// Runs every stage of `phase`, in registration order, against `ctx`.
  /// Wires ctx.options and ctx.pool before the first stage.
  void Run(EpochPhase phase, EpochContext& ctx);

  /// Appends a custom stage (runs after the defaults of its phase) —
  /// the extension seam for metrics/tracing stages and for tests.
  void AddStage(std::unique_ptr<EpochStage> stage);

  /// Stage names of one phase, in execution order.
  std::vector<const char*> StageNames(EpochPhase phase) const;

  /// Per-stage wall-time counters, in registration order (kBegin and
  /// kEnd stages interleaved exactly as registered).
  const std::vector<StageTiming>& stage_timings() const {
    return timings_;
  }

  /// Registers the service plane's between-epochs serve window: the data
  /// plane (skute/net) pumps live connections here while the epoch engine
  /// runs underneath as the control plane. SkuteStore::EndEpoch invokes
  /// it once after the kEnd stages — before the caller snapshots metrics,
  /// so served ops land in the epoch they debited capacity from. Unset
  /// (the default) is a no-op: runs without a server stay bit-identical.
  void SetServeWindow(std::function<void()> fn) {
    serve_window_ = std::move(fn);
  }

  /// Runs the registered serve window, if any.
  void RunServeWindow() {
    if (serve_window_) serve_window_();
  }

  bool has_serve_window() const { return static_cast<bool>(serve_window_); }

  /// The cross-epoch shard-plan cache Run() wires into every context.
  const ShardPlanCache& shard_plan_cache() const { return plan_cache_; }

  const EpochOptions& options() const { return options_; }

 private:
  WorkerPool* PoolForRun();

  EpochOptions options_;
  std::vector<std::unique_ptr<EpochStage>> stages_;
  std::vector<StageTiming> timings_;  // parallel to stages_
  ShardPlanCache plan_cache_;
  std::unique_ptr<WorkerPool> pool_;  // lazily created, reused per epoch
  std::function<void()> serve_window_;  // service plane's data-plane pump
};

}  // namespace skute

#endif  // SKUTE_ENGINE_EPOCH_PIPELINE_H_
