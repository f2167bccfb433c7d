#include "skute/workload/querygen.h"

#include <string>

#include "skute/common/logging.h"

namespace skute {

Result<QueryBatch> QueryGenerator::BuildEpochBatch(
    const RingCatalog& catalog, const std::vector<RingId>& rings,
    const std::vector<double>& fractions, double total_rate) {
  if (rings.size() != fractions.size()) {
    return Status::InvalidArgument(
        "rings/fractions size mismatch: " + std::to_string(rings.size()) +
        " rings vs " + std::to_string(fractions.size()) + " fractions");
  }
  QueryBatch batch;
  for (size_t i = 0; i < rings.size(); ++i) {
    const VirtualRing* ring = catalog.ring(rings[i]);
    if (ring == nullptr) {
      return Status::NotFound("unknown ring id " +
                              std::to_string(rings[i]));
    }
    const double ring_rate = total_rate * fractions[i];
    if (ring_rate <= 0.0) continue;

    double total_weight = 0.0;
    for (const auto& p : ring->partitions()) {
      total_weight += p->popularity_weight();
    }
    if (total_weight <= 0.0) continue;

    for (const auto& p : ring->partitions()) {
      const double lambda =
          ring_rate * p->popularity_weight() / total_weight;
      batch.Add(p->id(), rng_.Poisson(lambda));
    }
  }
  return batch;
}

uint64_t QueryGenerator::GenerateEpoch(SkuteStore* store,
                                       const std::vector<RingId>& rings,
                                       const std::vector<double>& fractions,
                                       double total_rate) {
  Result<QueryBatch> batch =
      BuildEpochBatch(store->catalog(), rings, fractions, total_rate);
  if (!batch.ok()) {
    SKUTE_LOG(kError) << "query workload misconfigured, no traffic "
                         "generated: " << batch.status().message();
    return 0;
  }
  return store->RouteQueryBatch(*batch).requested;
}

}  // namespace skute
