#include <gtest/gtest.h>

#include <cmath>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "oracle/greedy_oracle.h"
#include "oracle/ilp.h"
#include "oracle/timeline.h"
#include "trace/generator.h"

namespace byom::oracle {
namespace {

using common::kGiB;

trace::Job make_job(double arrival, double lifetime, std::uint64_t bytes,
                    double read_gib, double read_block) {
  static std::uint64_t next_id = 1;
  trace::Job j;
  j.job_id = next_id++;
  j.arrival_time = arrival;
  j.lifetime = lifetime;
  j.peak_bytes = bytes;
  j.io.bytes_written = bytes;
  j.io.bytes_read = static_cast<std::uint64_t>(read_gib * kGiB);
  j.io.avg_read_block = read_block;
  j.compute_costs(cost::CostModel{});
  return j;
}

trace::Job saver(double arrival, double lifetime, std::uint64_t bytes) {
  return make_job(arrival, lifetime, bytes,
                  8.0 * static_cast<double>(bytes) / kGiB, 8.0 * 1024.0);
}

trace::Job loser(double arrival, double lifetime, std::uint64_t bytes) {
  return make_job(arrival, lifetime, bytes, 0.1, 1024.0 * 1024.0);
}

// ---------------------------------------------------------------- timeline

TEST(CapacityTimeline, AddAndQuery) {
  CapacityTimeline t({0.0, 10.0, 20.0, 30.0});
  t.add(0.0, 20.0, 5.0);
  t.add(10.0, 30.0, 3.0);
  EXPECT_DOUBLE_EQ(t.max_in(0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(t.max_in(10.0, 20.0), 8.0);
  EXPECT_DOUBLE_EQ(t.max_in(20.0, 30.0), 3.0);
  EXPECT_DOUBLE_EQ(t.global_max(), 8.0);
}

TEST(CapacityTimeline, NegativeAddReverts) {
  CapacityTimeline t({0.0, 10.0, 20.0});
  t.add(0.0, 20.0, 5.0);
  t.add(0.0, 20.0, -5.0);
  EXPECT_DOUBLE_EQ(t.global_max(), 0.0);
}

TEST(CapacityTimeline, HalfOpenIntervals) {
  CapacityTimeline t({0.0, 10.0, 20.0});
  t.add(0.0, 10.0, 4.0);
  t.add(10.0, 20.0, 7.0);
  // [0,10) and [10,20) do not overlap.
  EXPECT_DOUBLE_EQ(t.global_max(), 7.0);
}

TEST(CapacityTimeline, UnknownBreakpointThrows) {
  CapacityTimeline t({0.0, 10.0});
  EXPECT_THROW(t.add(0.0, 5.0, 1.0), std::invalid_argument);
}

TEST(CapacityTimeline, ManyIntervalsStressAgainstNaive) {
  common::Rng rng(77);
  std::vector<double> points;
  struct Iv {
    double a, e, v;
  };
  std::vector<Iv> ivs;
  for (int i = 0; i < 200; ++i) {
    const double a = std::floor(rng.uniform(0, 1000));
    const double e = a + 1 + std::floor(rng.uniform(0, 100));
    points.push_back(a);
    points.push_back(e);
    ivs.push_back({a, e, rng.uniform(0.0, 10.0)});
  }
  CapacityTimeline t(points);
  for (const auto& iv : ivs) t.add(iv.a, iv.e, iv.v);
  // Naive check at each integer time.
  double naive_max = 0.0;
  for (double x = 0; x <= 1100; x += 1.0) {
    double sum = 0.0;
    for (const auto& iv : ivs) {
      if (iv.a <= x && x < iv.e) sum += iv.v;
    }
    naive_max = std::max(naive_max, sum);
  }
  EXPECT_NEAR(t.global_max(), naive_max, 1e-9);
}

// -------------------------------------------------------------- job values

TEST(JobValue, TcoMatchesSavings) {
  const cost::CostModel m;
  const auto j = saver(0, 600, 4 * kGiB);
  EXPECT_DOUBLE_EQ(job_value(j, Objective::kTco, m), j.tco_saving());
}

TEST(JobValue, TcioAlwaysNonNegative) {
  const cost::CostModel m;
  EXPECT_GE(job_value(loser(0, 600, kGiB), Objective::kTcio, m), 0.0);
  EXPECT_GE(job_value(saver(0, 600, kGiB), Objective::kTcio, m), 0.0);
}

// ---------------------------------------------------------------- exact

TEST(ExactOracle, PicksOnlyPositiveValueJobs) {
  std::vector<trace::Job> jobs{saver(0, 600, kGiB), loser(0, 600, kGiB)};
  const auto r =
      solve_exact(jobs, 100 * kGiB, Objective::kTco, cost::CostModel{});
  EXPECT_TRUE(r.on_ssd[0]);
  EXPECT_FALSE(r.on_ssd[1]);
}

TEST(ExactOracle, RespectsCapacity) {
  // Two overlapping 1 GiB savers, capacity for one.
  std::vector<trace::Job> jobs{saver(0, 600, kGiB), saver(10, 600, kGiB)};
  const auto r = solve_exact(jobs, kGiB, Objective::kTco, cost::CostModel{});
  EXPECT_EQ(r.num_selected, 1u);
}

TEST(ExactOracle, ReusesCapacityAfterJobEnds) {
  // Two disjoint-in-time savers both fit in 1 GiB.
  std::vector<trace::Job> jobs{saver(0, 100, kGiB), saver(200, 100, kGiB)};
  const auto r = solve_exact(jobs, kGiB, Objective::kTco, cost::CostModel{});
  EXPECT_EQ(r.num_selected, 2u);
}

TEST(ExactOracle, PrefersHigherValueWhenForcedToChoose) {
  // A big saver vs a small saver, same footprint per byte; capacity for one.
  auto big = saver(0, 600, kGiB);
  auto small = make_job(0, 600, kGiB, 1.0, 64.0 * 1024.0);
  ASSERT_GT(big.tco_saving(), small.tco_saving());
  std::vector<trace::Job> jobs{small, big};
  const auto r = solve_exact(jobs, kGiB, Objective::kTco, cost::CostModel{});
  EXPECT_FALSE(r.on_ssd[0]);
  EXPECT_TRUE(r.on_ssd[1]);
}

TEST(ExactOracle, EmptyInput) {
  const auto r =
      solve_exact({}, kGiB, Objective::kTco, cost::CostModel{});
  EXPECT_EQ(r.num_selected, 0u);
  EXPECT_DOUBLE_EQ(r.objective_value, 0.0);
}

TEST(ExactOracle, ZeroCapacitySelectsNothing) {
  std::vector<trace::Job> jobs{saver(0, 600, kGiB)};
  const auto r = solve_exact(jobs, 0, Objective::kTco, cost::CostModel{});
  EXPECT_EQ(r.num_selected, 0u);
}

TEST(ExactOracle, TooManyJobsThrows) {
  std::vector<trace::Job> jobs;
  for (int i = 0; i < 29; ++i) jobs.push_back(saver(i, 10, kGiB));
  EXPECT_THROW(
      solve_exact(jobs, kGiB, Objective::kTco, cost::CostModel{}),
      std::invalid_argument);
}

// ---------------------------------------------------------------- greedy

TEST(GreedyOracle, MatchesExactOnSimpleInstance) {
  std::vector<trace::Job> jobs{saver(0, 600, kGiB), saver(10, 600, kGiB),
                               loser(0, 600, kGiB)};
  const cost::CostModel m;
  const auto exact = solve_exact(jobs, 2 * kGiB, Objective::kTco, m);
  const auto greedy = solve_greedy(jobs, 2 * kGiB, Objective::kTco, m);
  EXPECT_NEAR(greedy.objective_value, exact.objective_value, 1e-12);
}

// Regression tripwire: on these 20 fixed instances the *pure heuristic*
// (exact dispatch disabled) reaches >= 85% of the certified
// branch-and-bound optimum. This is not a guarantee: temporal knapsack has
// no constant-factor greedy bound, and over parameters 0-1999 of this
// recipe 85 of the 1,990 instances with a positive optimum fall below 0.85
// (first at parameter 47, worst ratio 0.498; median 1.0). With the default
// options, small instances are solved exactly (see DispatchesToExact).
class GreedyVsExact : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsExact, NearOptimal) {
  common::Rng rng(1000 + GetParam());
  std::vector<trace::Job> jobs;
  const int n = 14 + GetParam() % 6;
  for (int i = 0; i < n; ++i) {
    const double arrival = rng.uniform(0, 5000);
    const double lifetime = rng.uniform(100, 3000);
    const auto bytes = static_cast<std::uint64_t>(
        rng.uniform(0.2, 4.0) * static_cast<double>(kGiB));
    if (rng.bernoulli(0.7)) {
      jobs.push_back(saver(arrival, lifetime, bytes));
    } else {
      jobs.push_back(loser(arrival, lifetime, bytes));
    }
  }
  const auto capacity =
      static_cast<std::uint64_t>(rng.uniform(1.0, 6.0) *
                                 static_cast<double>(kGiB));
  const cost::CostModel m;
  const auto exact = solve_exact(jobs, capacity, Objective::kTco, m);
  GreedyOptions heuristic_only;
  heuristic_only.exact_below = 0;
  const auto greedy =
      solve_greedy(jobs, capacity, Objective::kTco, m, heuristic_only);
  EXPECT_LE(greedy.objective_value, exact.objective_value + 1e-9);
  EXPECT_GE(greedy.objective_value, 0.85 * exact.objective_value);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyVsExact,
                         ::testing::Range(0, 20));

TEST(GreedyOracle, DispatchesToExactOnSmallInstances) {
  common::Rng rng(4242);
  std::vector<trace::Job> jobs;
  for (int i = 0; i < 18; ++i) {
    jobs.push_back(saver(rng.uniform(0, 5000), rng.uniform(100, 3000),
                         static_cast<std::uint64_t>(
                             rng.uniform(0.2, 4.0) *
                             static_cast<double>(kGiB))));
  }
  const cost::CostModel m;
  const auto exact = solve_exact(jobs, 3 * kGiB, Objective::kTco, m);
  const auto greedy = solve_greedy(jobs, 3 * kGiB, Objective::kTco, m);
  EXPECT_NEAR(greedy.objective_value, exact.objective_value, 1e-12);
}

// A job whose TCO saving is exactly `value` (kTco objective).
trace::Job valued(double arrival, double lifetime, std::uint64_t bytes,
                  double value) {
  auto j = saver(arrival, lifetime, bytes);
  j.cost_hdd = value;
  j.cost_ssd = 0.0;
  return j;
}

// The value-order pass is needed: four small dense jobs crowd out one big
// job worth more than all of them together.
TEST(GreedyOracle, ValueOrderWinsOverCrowdingDenseJobs) {
  std::vector<trace::Job> jobs{valued(0, 1000, 4 * kGiB, 10.0)};
  for (int k = 0; k < 4; ++k) {
    jobs.push_back(valued(250.0 * k, 100, kGiB, 1.0));  // density 4x the big
  }
  const cost::CostModel m;
  GreedyOptions heuristic_only;
  heuristic_only.exact_below = 0;
  const auto r =
      solve_greedy(jobs, 4 * kGiB, Objective::kTco, m, heuristic_only);
  EXPECT_EQ(r.objective_value, 10.0);  // density order alone reaches 4
  EXPECT_EQ(r.num_selected, 1u);
  EXPECT_TRUE(r.on_ssd[0]);
  EXPECT_EQ(solve_exact(jobs, 4 * kGiB, Objective::kTco, m).objective_value,
            10.0);
}

// The density-order pass is needed: one big-value job crowds out four
// back-to-back dense jobs worth more together.
TEST(GreedyOracle, DensityOrderWinsOverOneBigValueJob) {
  std::vector<trace::Job> jobs{valued(0, 1000, 4 * kGiB, 5.0)};
  for (int k = 0; k < 4; ++k) {
    jobs.push_back(valued(250.0 * k, 250, 4 * kGiB, 2.0));
  }
  const cost::CostModel m;
  GreedyOptions heuristic_only;
  heuristic_only.exact_below = 0;
  const auto r =
      solve_greedy(jobs, 4 * kGiB, Objective::kTco, m, heuristic_only);
  EXPECT_EQ(r.objective_value, 8.0);  // value order alone reaches 5
  EXPECT_EQ(r.num_selected, 4u);
  EXPECT_FALSE(r.on_ssd[0]);
  EXPECT_EQ(solve_exact(jobs, 4 * kGiB, Objective::kTco, m).objective_value,
            8.0);
}

TEST(GreedyOracle, SelectionRespectsCapacityTimeline) {
  common::Rng rng(777);
  std::vector<trace::Job> jobs;
  for (int i = 0; i < 300; ++i) {
    jobs.push_back(saver(rng.uniform(0, 50000), rng.uniform(60, 5000),
                         static_cast<std::uint64_t>(
                             rng.uniform(0.1, 3.0) *
                             static_cast<double>(kGiB))));
  }
  const std::uint64_t capacity = 8 * kGiB;
  const auto r =
      solve_greedy(jobs, capacity, Objective::kTco, cost::CostModel{});
  // Verify occupancy never exceeds capacity using an independent check.
  common::IntervalSeries series;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (r.on_ssd[i]) {
      series.add(jobs[i].arrival_time, jobs[i].end_time(),
                 static_cast<double>(jobs[i].peak_bytes));
    }
  }
  EXPECT_LE(series.peak(), static_cast<double>(capacity) * (1.0 + 1e-9));
}

TEST(GreedyOracle, MonotoneInCapacity) {
  const auto cfg = [] {
    trace::GeneratorConfig c;
    c.num_pipelines = 10;
    c.duration = 2 * 86400.0;
    c.seed = 31;
    return c;
  }();
  const auto t = trace::generate_cluster_trace(cfg);
  const cost::CostModel m;
  double prev = 0.0;
  for (double frac : {0.01, 0.05, 0.2, 0.8}) {
    const auto cap = static_cast<std::uint64_t>(
        frac * static_cast<double>(t.peak_concurrent_bytes()));
    const auto r = solve_greedy(t.jobs(), cap, Objective::kTco, m);
    EXPECT_GE(r.objective_value, prev - 1e-9);
    prev = r.objective_value;
  }
}

TEST(GreedyOracle, TcioObjectiveMovesMoreIo) {
  const auto cfg = [] {
    trace::GeneratorConfig c;
    c.num_pipelines = 10;
    c.duration = 2 * 86400.0;
    c.seed = 32;
    return c;
  }();
  const auto t = trace::generate_cluster_trace(cfg);
  const cost::CostModel m;
  const auto cap = static_cast<std::uint64_t>(
      0.05 * static_cast<double>(t.peak_concurrent_bytes()));
  const auto tco = solve_greedy(t.jobs(), cap, Objective::kTco, m);
  const auto tcio = solve_greedy(t.jobs(), cap, Objective::kTcio, m);
  double tcio_moved_by_tcio = 0.0, tcio_moved_by_tco = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double v = m.tcio_seconds_hdd(t.jobs()[i].cost_inputs());
    if (tcio.on_ssd[i]) tcio_moved_by_tcio += v;
    if (tco.on_ssd[i]) tcio_moved_by_tco += v;
  }
  // Both solvers are heuristics; allow a small tolerance, but the TCIO
  // objective must move at least roughly as much I/O as the TCO objective.
  EXPECT_GE(tcio_moved_by_tcio, tcio_moved_by_tco * 0.95);
}

}  // namespace
}  // namespace byom::oracle
