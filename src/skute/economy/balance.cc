#include "skute/economy/balance.h"

namespace skute {

double QueryUtility(uint64_t queries, double proximity,
                    const UtilityParams& params) {
  const double base =
      params.value_per_query * static_cast<double>(queries);
  if (params.divide_by_proximity) {
    return proximity > 0.0 ? base / proximity : base;
  }
  return base * proximity;
}

void BalanceTracker::Record(double balance) {
  const auto extend = [this](int run) {
    return run < window_ ? run + 1 : run;
  };
  count_ = extend(count_);
  negative_run_ = balance >= 0.0 ? 0 : extend(negative_run_);
  positive_run_ = balance <= 0.0 ? 0 : extend(positive_run_);
}

}  // namespace skute
