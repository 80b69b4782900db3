// Tests for the fluid discrete-event engine.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/simcore/engine.hpp"

namespace {

using namespace mtsched::simcore;
using mtsched::core::InvalidArgument;
using mtsched::core::InternalError;

TEST(Engine, TimerFiresAtExactTime) {
  Engine e;
  double fired = -1.0;
  e.submit_timer(2.5, [&](double t) { fired = t; });
  e.run();
  EXPECT_DOUBLE_EQ(fired, 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, ChainedTimersAccumulate) {
  Engine e;
  std::vector<double> times;
  e.submit_timer(1.0, [&](double t1) {
    times.push_back(t1);
    e.submit_timer(2.0, [&](double t2) { times.push_back(t2); });
  });
  e.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Engine, SoloActivityRunsAtCapacity) {
  Engine e;
  const auto r = e.add_resource(10.0);
  double done = -1.0;
  // 100 units of work at 10/s -> 10 s.
  e.submit({{r, 1.0}}, 100.0, 0.0, [&](double t) { done = t; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST(Engine, TwoActivitiesShareAndFinishTogether) {
  Engine e;
  const auto r = e.add_resource(10.0);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    e.submit({{r, 1.0}}, 50.0, 0.0, [&](double t) { done.push_back(t); });
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);  // each gets 5/s
  EXPECT_DOUBLE_EQ(done[1], 10.0);
}

TEST(Engine, LateArrivalSlowsExistingActivity) {
  Engine e;
  const auto r = e.add_resource(10.0);
  double first_done = -1.0, second_done = -1.0;
  e.submit({{r, 1.0}}, 100.0, 0.0, [&](double t) { first_done = t; });
  // Arrives at t=5 via a timer; shares the resource from then on.
  e.submit_timer(5.0, [&](double) {
    e.submit({{r, 1.0}}, 25.0, 0.0, [&](double t) { second_done = t; });
  });
  e.run();
  // First does 50 units solo by t=5; the remaining 50 at rate 5 until the
  // second finishes its 25 at t=10; then the last 25 solo -> t=12.5.
  EXPECT_DOUBLE_EQ(second_done, 10.0);
  EXPECT_DOUBLE_EQ(first_done, 12.5);
}

TEST(Engine, DelayPhaseConsumesNoResources) {
  Engine e;
  const auto r = e.add_resource(10.0);
  double a_done = -1.0, b_done = -1.0;
  // a: delayed by 10, then 10 units of work.
  e.submit({{r, 1.0}}, 10.0, 10.0, [&](double t) { a_done = t; });
  // b: 100 units, no delay. Runs solo until t=10.
  e.submit({{r, 1.0}}, 100.0, 0.0, [&](double t) { b_done = t; });
  e.run();
  // b alone until 10 (100 units done exactly) -> b at 10; a then solo 1 s.
  EXPECT_DOUBLE_EQ(b_done, 10.0);
  EXPECT_DOUBLE_EQ(a_done, 11.0);
}

TEST(Engine, ZeroWorkZeroDelayCompletesImmediately) {
  Engine e;
  double done = -1.0;
  e.submit({}, 0.0, 0.0, [&](double t) { done = t; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    const auto r1 = e.add_resource(7.0);
    const auto r2 = e.add_resource(3.0);
    std::vector<double> events;
    for (int i = 0; i < 5; ++i) {
      e.submit({{r1, 1.0 + i}, {r2, 0.5}}, 10.0 + i, 0.1 * i,
               [&, i](double t) { events.push_back(t * (i + 1)); });
    }
    e.run();
    return events;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, Validation) {
  Engine e;
  EXPECT_THROW(e.add_resource(0.0), InvalidArgument);
  const auto r = e.add_resource(1.0);
  EXPECT_THROW(e.submit({{r, 0.0}}, 1.0, 0.0, nullptr), InvalidArgument);
  EXPECT_THROW(e.submit({{r + 1, 1.0}}, 1.0, 0.0, nullptr), InvalidArgument);
  EXPECT_THROW(e.submit({{r, 1.0}}, -1.0, 0.0, nullptr), InvalidArgument);
  EXPECT_THROW(e.submit({{r, 1.0}}, 1.0, -1.0, nullptr), InvalidArgument);
}

TEST(Engine, EventBudgetGuardTrips) {
  Engine e;
  // A self-perpetuating timer chain exceeds a tiny budget.
  std::function<void(double)> again = [&](double) {
    e.submit_timer(1.0, again);
  };
  e.submit_timer(1.0, again);
  EXPECT_THROW(e.run(/*max_events=*/10), InternalError);
}

TEST(Engine, StepReturnsFalseWhenIdle) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.submit_timer(1.0, nullptr);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, ResourceAccessors) {
  Engine e;
  const auto r = e.add_resource(42.0);
  EXPECT_DOUBLE_EQ(e.capacity(r), 42.0);
  EXPECT_EQ(e.num_resources(), 1u);
  EXPECT_THROW(e.capacity(99), InvalidArgument);
}

TEST(Engine, EventsProcessedCounts) {
  Engine e;
  e.submit_timer(1.0, nullptr);
  e.submit_timer(2.0, nullptr);
  e.run();
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(Engine, UtilizationAccountsConsumption) {
  Engine e;
  const auto r = e.add_resource(10.0);
  e.submit({{r, 1.0}}, 50.0, 0.0, nullptr);  // 5 s at full rate
  e.submit_timer(15.0, nullptr);             // stretches the horizon
  e.run();
  EXPECT_DOUBLE_EQ(e.resource_usage(r), 50.0);
  // 50 units over 15 s at capacity 10 -> 1/3 utilization.
  EXPECT_NEAR(e.utilization(r), 50.0 / 150.0, 1e-12);
}

TEST(Engine, UtilizationZeroBeforeTimePasses) {
  Engine e;
  const auto r = e.add_resource(10.0);
  EXPECT_DOUBLE_EQ(e.utilization(r), 0.0);
  EXPECT_THROW(e.utilization(99), InvalidArgument);
}

TEST(Engine, TimerExpiryDoesNotDisturbSharedRates) {
  // Pure timers firing mid-simulation take the solver-skip fast path (the
  // working usage multiset is unchanged): completion times of the work
  // activities must be bitwise equal to a run without the timers.
  auto done_times_with = [](bool with_timers) {
    Engine e;
    const auto r = e.add_resource(10.0);
    std::vector<double> done;
    e.submit({{r, 1.0}}, 100.0, 0.0, [&](double t) { done.push_back(t); });
    e.submit({{r, 2.0}}, 100.0, 0.0, [&](double t) { done.push_back(t); });
    if (with_timers) {
      for (int i = 1; i <= 5; ++i) e.submit_timer(2.5 * i, nullptr);
    }
    e.run();
    return done;
  };
  const auto with_t = done_times_with(true);
  const auto without = done_times_with(false);
  ASSERT_EQ(with_t.size(), without.size());
  for (std::size_t i = 0; i < with_t.size(); ++i) {
    // The timers subdivide the work-advance chains, so equality is only up
    // to float accumulation — but any solver-skip bug (stale or zeroed
    // rates after a timer expiry) shifts completions by whole seconds.
    EXPECT_NEAR(with_t[i], without[i], 1e-9) << "completion " << i;
  }
}

TEST(Engine, SlotReuseKeepsIdsAndCountsStraight) {
  // Heavy churn exercises the slab free list: ids stay unique, lookups by
  // id keep working, and the active count tracks live activities only.
  Engine e;
  const auto r = e.add_resource(10.0);
  int completions = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    e.submit({{r, 1.0}}, 5.0, 0.5, [&, remaining](double) {
      ++completions;
      chain(remaining - 1);
    });
  };
  // Three interleaved chains of 40 activities each.
  chain(40);
  chain(40);
  chain(40);
  EXPECT_EQ(e.num_active(), 3u);
  e.run();
  EXPECT_EQ(completions, 120);
  EXPECT_EQ(e.num_active(), 0u);
  EXPECT_EQ(e.events_processed(), 120u);
}

TEST(Engine, CurrentRateLookupAfterInterleavedCompletions) {
  // current_rate() binary-searches the id-ordered live list; holes left by
  // completed activities must not break the id lookup.
  Engine e;
  const auto r = e.add_resource(12.0);
  const auto a = e.submit({{r, 1.0}}, 6.0, 0.0, nullptr);    // done at t=1.5
  const auto b = e.submit({{r, 1.0}}, 400.0, 0.0, nullptr);  // long-lived
  const auto c = e.submit({{r, 1.0}}, 6.0, 0.0, nullptr);    // done at t=1.5
  ASSERT_TRUE(e.step());  // a and c finish; b survives in the middle slot
  EXPECT_EQ(e.num_active(), 1u);
  // Completed ids no longer resolve; the surviving id still does (rates
  // are pending recomputation right after a completion, as always).
  EXPECT_THROW(e.current_rate(a), InvalidArgument);
  EXPECT_THROW(e.current_rate(c), InvalidArgument);
  EXPECT_THROW(e.current_rate(b), InvalidArgument);  // dirty, but found
  e.run();
  EXPECT_EQ(e.num_active(), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 1.5 + 394.0 / 12.0);
}

TEST(Engine, SharedResourceUsageSumsAcrossActivities) {
  Engine e;
  const auto r = e.add_resource(10.0);
  e.submit({{r, 1.0}}, 30.0, 0.0, nullptr);
  e.submit({{r, 1.0}}, 30.0, 0.0, nullptr);
  e.run();
  EXPECT_DOUBLE_EQ(e.resource_usage(r), 60.0);
  EXPECT_NEAR(e.utilization(r), 1.0, 1e-12);  // saturated throughout
}

}  // namespace
