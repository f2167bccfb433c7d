#include "skute/economy/balance.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "skute/common/random.h"

namespace skute {
namespace {

TEST(QueryUtilityTest, ProportionalToQueriesAndProximity) {
  UtilityParams params;
  params.value_per_query = 0.01;
  EXPECT_DOUBLE_EQ(QueryUtility(100, 1.0, params), 1.0);
  EXPECT_DOUBLE_EQ(QueryUtility(100, 2.0, params), 2.0);
  EXPECT_DOUBLE_EQ(QueryUtility(0, 5.0, params), 0.0);
}

TEST(QueryUtilityTest, LiteralDivideByProximityAblation) {
  UtilityParams params;
  params.value_per_query = 0.01;
  params.divide_by_proximity = true;
  EXPECT_DOUBLE_EQ(QueryUtility(100, 2.0, params), 0.5);
  // Guard against division by zero.
  EXPECT_DOUBLE_EQ(QueryUtility(100, 0.0, params), 1.0);
}

TEST(BalanceTrackerTest, NoStreakBeforeWindowFills) {
  BalanceTracker t(3);
  t.Record(-1.0);
  t.Record(-1.0);
  EXPECT_FALSE(t.NegativeStreak());
  t.Record(-1.0);
  EXPECT_TRUE(t.NegativeStreak());
}

TEST(BalanceTrackerTest, PositiveStreak) {
  BalanceTracker t(2);
  t.Record(0.5);
  t.Record(0.5);
  EXPECT_TRUE(t.PositiveStreak());
  EXPECT_FALSE(t.NegativeStreak());
}

TEST(BalanceTrackerTest, ZeroBreaksBothStreaks) {
  // The utility floor produces exact zeros on the cheapest server; zero
  // must break a negative streak (the paper's anti-churn rule).
  BalanceTracker t(2);
  t.Record(-1.0);
  t.Record(0.0);
  EXPECT_FALSE(t.NegativeStreak());
  EXPECT_FALSE(t.PositiveStreak());
}

TEST(BalanceTrackerTest, MixedSignsNoStreak) {
  BalanceTracker t(3);
  t.Record(-1.0);
  t.Record(1.0);
  t.Record(-1.0);
  EXPECT_FALSE(t.NegativeStreak());
  EXPECT_FALSE(t.PositiveStreak());
}

TEST(BalanceTrackerTest, WindowSlides) {
  BalanceTracker t(2);
  t.Record(1.0);
  t.Record(-1.0);
  t.Record(-2.0);
  EXPECT_TRUE(t.NegativeStreak());  // the old +1 slid out
  EXPECT_EQ(t.count(), 2u);
}

TEST(BalanceTrackerTest, ResetClearsHistory) {
  BalanceTracker t(2);
  t.Record(-1.0);
  t.Record(-1.0);
  EXPECT_TRUE(t.NegativeStreak());
  t.Reset();
  EXPECT_FALSE(t.NegativeStreak());
  EXPECT_EQ(t.count(), 0u);
  t.Record(-1.0);
  EXPECT_FALSE(t.NegativeStreak());  // a full window again after reset
}

TEST(BalanceTrackerTest, WindowOfOneReactsImmediately) {
  BalanceTracker t(1);
  t.Record(-0.1);
  EXPECT_TRUE(t.NegativeStreak());
  t.Record(0.1);
  EXPECT_TRUE(t.PositiveStreak());
}

TEST(BalanceTrackerTest, DegenerateWindowClampedToOne) {
  BalanceTracker t(0);
  EXPECT_EQ(t.window(), 1);
  t.Record(1.0);
  EXPECT_TRUE(t.PositiveStreak());
}

// The window the tracker replaced, kept here as the reference: the last
// `window` balances, a streak needing a full window of values that are
// not >= 0 (negative) or not <= 0 (positive).
class ReferenceWindow {
 public:
  explicit ReferenceWindow(int window) : window_(window) {}

  void Record(double balance) {
    history_.push_back(balance);
    if (history_.size() > static_cast<size_t>(window_)) {
      history_.pop_front();
    }
  }
  void Reset() { history_.clear(); }
  bool NegativeStreak() const {
    return Full() && std::none_of(history_.begin(), history_.end(),
                                  [](double b) { return b >= 0.0; });
  }
  bool PositiveStreak() const {
    return Full() && std::none_of(history_.begin(), history_.end(),
                                  [](double b) { return b <= 0.0; });
  }
  size_t count() const { return history_.size(); }

 private:
  bool Full() const {
    return history_.size() == static_cast<size_t>(window_);
  }

  int window_;
  std::deque<double> history_;
};

TEST(BalanceTrackerTest, MatchesReferenceWindowOnRandomStreams) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {-2.5, -1e-300, 1e-300, 3.0, 0.0,
                                      -0.0, kNaN,    kInf,   -kInf};
  Rng rng(20100301);
  size_t streaks = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int window = static_cast<int>(rng.UniformInt(1, 6));
    BalanceTracker tracker(window);
    ReferenceWindow reference(window);
    // Draw from a few values per trial, so runs long enough to be
    // streaks are common.
    std::vector<double> pool;
    for (uint64_t i = rng.UniformInt(1, 3); i > 0; --i) {
      pool.push_back(values[rng.UniformInt(0, values.size() - 1)]);
    }
    for (int step = 0; step < 200; ++step) {
      if (rng.Bernoulli(0.03)) {
        tracker.Reset();
        reference.Reset();
      } else {
        const double b = pool[rng.UniformInt(0, pool.size() - 1)];
        tracker.Record(b);
        reference.Record(b);
      }
      ASSERT_EQ(tracker.NegativeStreak(), reference.NegativeStreak())
          << "trial " << trial << " step " << step;
      ASSERT_EQ(tracker.PositiveStreak(), reference.PositiveStreak())
          << "trial " << trial << " step " << step;
      ASSERT_EQ(tracker.count(), reference.count())
          << "trial " << trial << " step " << step;
      streaks += tracker.NegativeStreak() + tracker.PositiveStreak();
    }
  }
  EXPECT_GT(streaks, 1000u);  // the streams really reached streaks
}

TEST(BalanceTrackerTest, NaNCountsAsNegativeAndPositive) {
  BalanceTracker t(2);
  t.Record(std::numeric_limits<double>::quiet_NaN());
  t.Record(-1.0);
  EXPECT_TRUE(t.NegativeStreak());
  t.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(t.NegativeStreak());
  EXPECT_FALSE(t.PositiveStreak());
  t.Record(1.0);
  EXPECT_FALSE(t.NegativeStreak());
  EXPECT_TRUE(t.PositiveStreak());
}

}  // namespace
}  // namespace skute
