#ifndef SKUTE_ECONOMY_BALANCE_H_
#define SKUTE_ECONOMY_BALANCE_H_

#include <cstddef>
#include <cstdint>

namespace skute {

/// Parameters of the per-query utility u(pop, g) (Eq. 5). The default
/// multiplies by proximity (the prose semantics); the flag switches to the
/// literal "divided by g" text.
struct UtilityParams {
  /// Monetary value per served query at proximity 1 (kappa).
  double value_per_query = 0.01;
  /// Ablation switch: divide by g instead of multiplying (literal Eq. 5
  /// text). Off by default.
  bool divide_by_proximity = false;
};

/// Utility earned by a vnode that served `queries` at proximity `g`.
double QueryUtility(uint64_t queries, double proximity,
                    const UtilityParams& params);

/// \brief Streak state over a vnode's last `f` balances (Eq. 5 history).
///
/// Section II-C triggers migrate-or-suicide after `f` consecutive negative
/// balances and considers replication after `f` consecutive positive ones.
/// The history resets whenever the vnode executes an action, so a fresh
/// placement gets a full observation period before the next move.
///
/// Only the streaks matter, so the tracker keeps the lengths of the
/// current negative and positive runs, capped at the window, instead of
/// the balances themselves. A balance counts as negative unless it is
/// >= 0 and as positive unless it is <= 0: 0 and -0 break both runs, and
/// NaN extends both.
class BalanceTracker {
 public:
  explicit BalanceTracker(int window) : window_(window < 1 ? 1 : window) {}

  /// Records the balance of a completed epoch.
  void Record(double balance);

  /// True when the last `window` records are all negative.
  bool NegativeStreak() const { return negative_run_ == window_; }

  /// True when the last `window` records are all positive.
  bool PositiveStreak() const { return positive_run_ == window_; }

  /// Clears the history (called after replicate/migrate decisions).
  void Reset() { count_ = negative_run_ = positive_run_ = 0; }

  /// Records since the last reset, capped at the window.
  size_t count() const { return static_cast<size_t>(count_); }
  int window() const { return window_; }

 private:
  int window_;
  int count_ = 0;
  int negative_run_ = 0;
  int positive_run_ = 0;
};

}  // namespace skute

#endif  // SKUTE_ECONOMY_BALANCE_H_
