// Parameterized property tests: invariants that must hold across archetype,
// quota, category-count, and configuration sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/category_provider.h"
#include "core/byom.h"
#include "core/labeler.h"
#include "core/model_backend.h"
#include "core/model_registry.h"
#include "oracle/greedy_oracle.h"
#include "oracle/ilp.h"
#include "policy/adaptive.h"
#include "policy/first_fit.h"
#include "policy/oracle_replay.h"
#include "harness/experiment.h"
#include "serving/latency_model.h"
#include "serving/placement_service.h"
#include "sim/sim_clock.h"
#include "trace/archetypes.h"
#include "trace/generator.h"

namespace byom {
namespace {

using common::kGiB;

trace::Trace shared_trace() {
  static const trace::Trace t = [] {
    trace::GeneratorConfig cfg = trace::canonical_cluster_config(0, 909);
    cfg.num_pipelines = 14;
    cfg.duration = 6.0 * 86400.0;
    return trace::generate_cluster_trace(cfg);
  }();
  return t;
}

// ------------------------------------------------ archetype cost properties

// Every archetype must generate jobs whose mean TCO-saving sign matches its
// intended SSD/HDD suitability (README.md, "Design notes: Workload
// inventory").
class ArchetypeSuitability
    : public ::testing::TestWithParam<trace::ArchetypeId> {};

TEST_P(ArchetypeSuitability, SavingSignMatchesIntent) {
  const auto id = GetParam();
  trace::GeneratorConfig cfg;
  cfg.num_pipelines = 10;
  cfg.duration = 3.0 * 86400.0;
  cfg.seed = 1234 + static_cast<std::uint64_t>(id);
  std::vector<double> w(static_cast<std::size_t>(trace::ArchetypeId::kCount),
                        0.0);
  w[static_cast<std::size_t>(id)] = 1.0;
  cfg.archetype_weights = w;
  const auto t = trace::generate_cluster_trace(cfg);
  ASSERT_GT(t.size(), 50u);
  double total_saving = 0.0;
  for (const auto& j : t.jobs()) total_saving += j.tco_saving();

  switch (id) {
    case trace::ArchetypeId::kStreamingShuffle:
    case trace::ArchetypeId::kDbQuery:
    case trace::ArchetypeId::kSimulation:
    case trace::ArchetypeId::kCompressUpload:
      EXPECT_GT(total_saving, 0.0) << "SSD-suitable archetype lost money";
      break;
    case trace::ArchetypeId::kMlCheckpoint:
    case trace::ArchetypeId::kVideoProcessing:
    case trace::ArchetypeId::kMlTrainingCkpt:
      EXPECT_LT(total_saving, 0.0) << "HDD-suitable archetype saved money";
      break;
    case trace::ArchetypeId::kLogProcessing:
      // Middling by design: neither strongly positive nor catastrophic.
      EXPECT_LT(std::abs(total_saving) / static_cast<double>(t.size()), 0.05);
      break;
    default:
      FAIL() << "unhandled archetype";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchetypes, ArchetypeSuitability,
    ::testing::Values(trace::ArchetypeId::kStreamingShuffle,
                      trace::ArchetypeId::kDbQuery,
                      trace::ArchetypeId::kLogProcessing,
                      trace::ArchetypeId::kSimulation,
                      trace::ArchetypeId::kVideoProcessing,
                      trace::ArchetypeId::kMlCheckpoint,
                      trace::ArchetypeId::kCompressUpload,
                      trace::ArchetypeId::kMlTrainingCkpt));

// ------------------------------------------------------- oracle vs quota

class OracleQuota : public ::testing::TestWithParam<double> {};

TEST_P(OracleQuota, SelectionWithinCapacityAndValuePositive) {
  const double quota = GetParam();
  const auto t = shared_trace();
  const auto cap = sim::quota_capacity(t, quota);
  const cost::CostModel model;
  const auto r =
      oracle::solve_greedy(t.jobs(), cap, oracle::Objective::kTco, model);
  EXPECT_GE(r.objective_value, 0.0);
  // No negative-saving job is ever selected.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (r.on_ssd[i]) {
      EXPECT_GE(t.jobs()[i].tco_saving(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QuotaSweep, OracleQuota,
                         ::testing::Values(0.001, 0.01, 0.05, 0.25, 1.0));

// ------------------------------------------------------- oracle contract

// A job of GreedyVsExact's recipe (tests/oracle_test.cc): a saver reads
// 8 bytes per byte stored in 8 KiB blocks, a loser 0.1 GiB in 1 MiB blocks.
trace::Job recipe_job(std::uint64_t id, double arrival, double lifetime,
                      std::uint64_t bytes, bool saver) {
  trace::Job j;
  j.job_id = id;
  j.arrival_time = arrival;
  j.lifetime = lifetime;
  j.peak_bytes = bytes;
  j.io.bytes_written = bytes;
  j.io.bytes_read = saver ? 8 * bytes : kGiB / 10;
  j.io.avg_read_block = saver ? 8.0 * 1024.0 : 1024.0 * 1024.0;
  j.compute_costs(cost::CostModel{});
  return j;
}

enum class Degenerate {
  kZeroBytes,     // peak_bytes = 0, still reads
  kZeroLifetime,  // arrival == end
  kZeroValue,     // no I/O, no bytes, no saving: value 0 under both objectives
  kEqualArrival,  // arrives with `prev`
  kGiant,         // one byte-saver larger than the whole capacity
  kCount,
};

trace::Job degenerate_job(Degenerate kind, std::uint64_t id,
                          const trace::Job& prev, std::uint64_t capacity) {
  switch (kind) {
    case Degenerate::kZeroBytes: {
      auto j = recipe_job(id, prev.arrival_time + 7.0, 600, 0, true);
      j.io.bytes_read = kGiB;
      j.compute_costs(cost::CostModel{});
      return j;
    }
    case Degenerate::kZeroLifetime:
      return recipe_job(id, prev.arrival_time + 3.0, 0.0, kGiB / 2, true);
    case Degenerate::kZeroValue: {
      auto j = recipe_job(id, prev.arrival_time, 900, 0, true);
      j.io = {};
      j.compute_costs(cost::CostModel{});
      j.cost_ssd = j.cost_hdd;
      return j;
    }
    case Degenerate::kEqualArrival:
      return recipe_job(id, prev.arrival_time, 1200, kGiB, true);
    case Degenerate::kGiant:
      return recipe_job(id, prev.arrival_time + 1.0, 2000, capacity + kGiB,
                        true);
    case Degenerate::kCount:
      break;
  }
  return prev;
}

// What every oracle selection must satisfy: it fits under capacity (checked
// by an independent interval sweep, not the solvers' CapacityTimeline),
// `objective_value` is the value of the selected jobs, and no job of value
// <= 0 is selected.
void expect_valid_selection(const std::vector<trace::Job>& jobs,
                            std::uint64_t capacity,
                            oracle::Objective objective,
                            const oracle::Result& r) {
  const cost::CostModel model;
  ASSERT_EQ(r.on_ssd.size(), jobs.size());
  common::IntervalSeries occupancy;
  double value = 0.0;
  std::size_t selected = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!r.on_ssd[i]) continue;
    const auto& j = jobs[i];
    const double v = oracle::job_value(j, objective, model);
    EXPECT_GT(v, 0.0) << "job " << j.job_id;
    EXPECT_LE(j.peak_bytes, capacity) << "job " << j.job_id;
    occupancy.add(j.arrival_time, j.end_time(),
                  static_cast<double>(j.peak_bytes));
    value += v;
    ++selected;
  }
  EXPECT_EQ(r.num_selected, selected);
  EXPECT_NEAR(r.objective_value, value, 1e-12 * std::max(1.0, value));
  EXPECT_LE(occupancy.peak(), static_cast<double>(capacity) * (1.0 + 1e-9));
}

// Exact, default greedy and pure heuristic under both objectives: every
// selection is valid, the heuristic never beats the optimum, and the
// default greedy is the optimum on instances it dispatches to the exact
// solver.
void expect_oracle_contract(const std::vector<trace::Job>& jobs,
                            std::uint64_t capacity) {
  const cost::CostModel model;
  oracle::GreedyOptions heuristic_only;
  heuristic_only.exact_below = 0;
  for (const auto objective :
       {oracle::Objective::kTco, oracle::Objective::kTcio}) {
    SCOPED_TRACE(objective == oracle::Objective::kTco ? "kTco" : "kTcio");
    const auto exact = oracle::solve_exact(jobs, capacity, objective, model);
    const auto greedy = oracle::solve_greedy(jobs, capacity, objective, model);
    const auto heuristic = oracle::solve_greedy(jobs, capacity, objective,
                                                model, heuristic_only);
    expect_valid_selection(jobs, capacity, objective, exact);
    expect_valid_selection(jobs, capacity, objective, greedy);
    expect_valid_selection(jobs, capacity, objective, heuristic);
    EXPECT_LE(heuristic.objective_value,
              exact.objective_value +
                  1e-9 * std::max(1.0, exact.objective_value));
    if (jobs.size() <= oracle::GreedyOptions{}.exact_below) {
      EXPECT_EQ(greedy.objective_value, exact.objective_value);
    }
  }
}

// One of each degenerate job among ordinary savers and losers: zero-byte
// (including 0/0 density), zero-lifetime, zero-value, equal-arrival and
// larger-than-capacity jobs go through both solvers.
TEST(OracleContract, DegenerateJobsThroughBothSolvers) {
  const std::uint64_t capacity = 3 * kGiB;
  std::vector<trace::Job> jobs{
      recipe_job(1, 0, 600, kGiB, true),
      recipe_job(2, 100, 600, 2 * kGiB, true),
      recipe_job(3, 0, 600, kGiB, false),
      recipe_job(4, 300, 900, kGiB, true),
  };
  for (int k = 0; k < static_cast<int>(Degenerate::kCount); ++k) {
    jobs.push_back(degenerate_job(static_cast<Degenerate>(k), jobs.size() + 1,
                                  jobs.back(), capacity));
  }
  // Zero bytes and zero lifetime together.
  jobs.push_back(recipe_job(jobs.size() + 1, 50, 0, 0, true));
  expect_oracle_contract(jobs, capacity);

  const cost::CostModel model;
  const auto r =
      oracle::solve_greedy(jobs, capacity, oracle::Objective::kTco, model);
  const auto& zero_bytes = jobs[4];
  const auto& zero_lifetime = jobs[5];
  const auto& giant = jobs[8];
  ASSERT_GT(zero_bytes.tco_saving(), 0.0);
  ASSERT_GT(zero_lifetime.tco_saving(), 0.0);
  ASSERT_GT(giant.tco_saving(), 0.0);
  // Zero bytes, or zero time, always fit; more than capacity never does.
  EXPECT_TRUE(r.on_ssd[4]);
  EXPECT_TRUE(r.on_ssd[5]);
  EXPECT_FALSE(r.on_ssd[8]);
}

// Seeded randomized contract: a few hundred GreedyVsExact-style instances
// of 8-22 jobs, each with some degenerate jobs mixed in.
TEST(OracleContract, RandomizedInstancesHonourTheContract) {
  for (int instance = 0; instance < 300; ++instance) {
    SCOPED_TRACE("instance " + std::to_string(instance));
    common::Rng rng(5000 + static_cast<std::uint64_t>(instance));
    const auto capacity = static_cast<std::uint64_t>(
        rng.uniform(1.0, 6.0) * static_cast<double>(kGiB));
    const int n = 8 + instance % 15;
    std::vector<trace::Job> jobs;
    for (int i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint64_t>(i + 1);
      if (i > 0 && rng.bernoulli(0.2)) {
        const auto kind = static_cast<Degenerate>(rng.uniform_index(
            static_cast<std::uint64_t>(Degenerate::kCount)));
        jobs.push_back(degenerate_job(kind, id, jobs.back(), capacity));
        continue;
      }
      const double arrival = rng.uniform(0, 5000);
      const double lifetime = rng.uniform(100, 3000);
      const auto bytes = static_cast<std::uint64_t>(
          rng.uniform(0.2, 4.0) * static_cast<double>(kGiB));
      jobs.push_back(
          recipe_job(id, arrival, lifetime, bytes, rng.bernoulli(0.7)));
    }
    expect_oracle_contract(jobs, capacity);
  }
}

// ------------------------------------------------------- labeler properties

class LabelerCategories : public ::testing::TestWithParam<int> {};

TEST_P(LabelerCategories, EquiDepthBalancedLinearLogNot) {
  const int n = GetParam();
  const auto t = shared_trace();
  const auto equi =
      core::CategoryLabeler::fit(t.jobs(), n, core::LabelSpacing::kEquiDepth);
  const auto linear =
      core::CategoryLabeler::fit(t.jobs(), n, core::LabelSpacing::kLinear);

  const auto share = [&](const core::CategoryLabeler& labeler) {
    const auto h = labeler.category_histogram(t.jobs());
    int total = 0, biggest = 0;
    for (std::size_t c = 1; c < h.size(); ++c) {
      total += h[c];
      biggest = std::max(biggest, h[c]);
    }
    return total ? static_cast<double>(biggest) / total : 1.0;
  };
  // Equi-depth: every density class holds ~1/(n-1) of cost-saving jobs.
  EXPECT_LT(share(equi), 2.5 / (n - 1));
  // Linear spacing concentrates the mass (paper: "heavily imbalanced").
  EXPECT_GT(share(linear), share(equi));
}

TEST_P(LabelerCategories, CategoriesAreMonotoneInDensity) {
  const int n = GetParam();
  const auto t = shared_trace();
  const auto labeler = core::CategoryLabeler::fit(t.jobs(), n);
  // For cost-saving jobs, higher density can never mean a lower category.
  const auto& jobs = t.jobs();
  for (std::size_t i = 0; i + 1 < jobs.size(); i += 2) {
    const auto& a = jobs[i];
    const auto& b = jobs[i + 1];
    if (a.tco_saving() < 0 || b.tco_saving() < 0) continue;
    if (a.io_density <= b.io_density) {
      EXPECT_LE(labeler.category_of(a), labeler.category_of(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CategoryCounts, LabelerCategories,
                         ::testing::Values(5, 10, 15, 25));

// --------------------------------------------------- adaptive policy sweeps

struct AdaptiveSweepParam {
  int num_categories;
  double lower, upper;
};

class AdaptiveSweep : public ::testing::TestWithParam<AdaptiveSweepParam> {};

TEST_P(AdaptiveSweep, ActAlwaysWithinBounds) {
  const auto param = GetParam();
  policy::AdaptiveConfig cfg;
  cfg.num_categories = param.num_categories;
  cfg.spillover_lower = param.lower;
  cfg.spillover_upper = param.upper;
  cfg.decision_interval = 50.0;
  cfg.lookback_window = 200.0;
  common::Rng rng(42);
  policy::AdaptiveCategoryPolicy policy(
      "sweep", core::make_hash_provider(param.num_categories), cfg);
  policy::StorageView view;
  view.ssd_capacity_bytes = kGiB;
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform(10.0, 120.0);
    trace::Job j;
    j.job_id = static_cast<std::uint64_t>(i);
    j.job_key = "k" + std::to_string(i % 17);
    j.arrival_time = t;
    j.lifetime = rng.uniform(30.0, 600.0);
    j.peak_bytes = kGiB / 4;
    j.tcio_hdd = rng.uniform(0.0, 2.0);
    const auto device = policy.decide(j, view);
    policy::PlacementOutcome out;
    out.scheduled = device;
    out.spill_fraction = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
    policy.on_placed(j, out);
    EXPECT_GE(policy.current_act(), 1);
    EXPECT_LE(policy.current_act(), param.num_categories - 1);
  }
  for (const auto& rec : policy.decision_log()) {
    EXPECT_GE(rec.spillover_pct, 0.0);
    EXPECT_LE(rec.spillover_pct, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AdaptiveSweep,
    ::testing::Values(AdaptiveSweepParam{2, 0.01, 0.15},
                      AdaptiveSweepParam{5, 0.005, 0.03},
                      AdaptiveSweepParam{15, 0.01, 0.15},
                      AdaptiveSweepParam{35, 0.05, 0.25}));

// ----------------------------------------------------- simulator properties

class SimulatorQuota : public ::testing::TestWithParam<double> {};

TEST_P(SimulatorQuota, AccountingConservation) {
  const double quota = GetParam();
  const auto t = shared_trace();
  const auto cap = sim::quota_capacity(t, quota);
  policy::FirstFitPolicy policy;
  sim::SimConfig cfg;
  cfg.ssd_capacity_bytes = cap;
  cfg.record_outcomes = true;
  const auto r = sim::simulate(t, policy, cfg);
  // The all-HDD baseline never depends on the policy or the quota.
  EXPECT_NEAR(r.tco_all_hdd, t.total_cost_all_hdd(), 1e-6);
  // Actual TCIO never exceeds the all-HDD TCIO, and is non-negative.
  EXPECT_LE(r.tcio_actual_seconds, r.tcio_all_hdd_seconds * (1 + 1e-12));
  EXPECT_GE(r.tcio_actual_seconds, 0.0);
  // FirstFit never spills: it only admits jobs that fully fit.
  for (const auto& o : r.outcomes) {
    EXPECT_DOUBLE_EQ(o.spill_fraction, 0.0);
  }
  // Peak usage respects the configured capacity.
  EXPECT_LE(r.peak_ssd_used_bytes, cap);
}

TEST_P(SimulatorQuota, OracleSavingsMatchSimulatedSavings) {
  // The oracle's objective value must equal the simulator's realized TCO
  // saving when its decisions are replayed (no hidden cost leakage).
  const double quota = GetParam();
  const auto t = shared_trace();
  const auto cap = sim::quota_capacity(t, quota);
  const cost::CostModel model;
  const auto solution =
      oracle::solve_greedy(t.jobs(), cap, oracle::Objective::kTco, model);
  policy::OracleReplayPolicy policy("oracle", t.jobs(), solution);
  sim::SimConfig cfg;
  cfg.ssd_capacity_bytes = cap;
  const auto r = sim::simulate(t, policy, cfg);
  const double simulated_saving = r.tco_all_hdd - r.tco_actual;
  EXPECT_NEAR(simulated_saving, solution.objective_value,
              solution.objective_value * 0.01 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(QuotaSweep, SimulatorQuota,
                         ::testing::Values(0.005, 0.05, 0.5));

// ------------------------------------------------ serving-table contract

// Seeded randomized contract of the virtual-time hint table: a
// single-shard service over a random job subset, with random fixed or
// exponential latency, deadline, batch size and queue bound, and about a
// third of the requests submitted up to an hour ahead of their job's
// arrival (some then overflow the queue bound). Each job is
// requested once and consumed once, at its arrival; every request is then
// accounted for, every on-time hint is the offline-batched one, and once
// the clock has run every event the table holds nothing.
TEST(ServingContract, RandomizedVirtualTimeHintsAreTakenOnce) {
  const auto t = shared_trace();
  constexpr int kCategories = 6;
  core::BackendConfig backend;
  backend.model.num_categories = kCategories;
  auto registry = std::make_shared<core::ModelRegistry>();
  registry->set_default_model(core::train_backend(
      core::BackendKind::kFrequency, t.jobs(), backend));

  for (int instance = 0; instance < 100; ++instance) {
    SCOPED_TRACE("instance " + std::to_string(instance));
    common::Rng rng(7000 + static_cast<std::uint64_t>(instance));
    std::vector<trace::Job> jobs;
    const double keep = rng.uniform(0.01, 0.08);
    for (const auto& job : t.jobs()) {
      if (rng.bernoulli(keep)) jobs.push_back(job);
    }

    serving::PlacementServiceConfig config;
    config.num_threads = 0;
    config.fallback_num_categories = kCategories;
    config.max_batch = 1 + rng.uniform_index(64);
    config.queue_capacity = 1 + rng.uniform_index(4);
    config.clock = std::make_shared<sim::SimClock>();
    const double latency = rng.uniform(0.0, 3.0);
    config.latency_model =
        rng.bernoulli(0.5)
            ? serving::make_fixed_latency_model(latency)
            : serving::make_exponential_latency_model(latency, rng.next_u64());
    config.virtual_request_deadline = rng.uniform(0.0, 3.0);
    serving::PlacementService service(registry, config);
    const auto expected =
        core::precompute_categories(*registry, jobs, kCategories);

    // (time, consume?, job): a job's submit sorts before its consume.
    std::vector<std::tuple<double, bool, std::size_t>> steps;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double lead = rng.bernoulli(0.3) ? rng.uniform(0.0, 3600.0) : 0.0;
      steps.emplace_back(jobs[i].arrival_time - lead, false, i);
      steps.emplace_back(jobs[i].arrival_time, true, i);
    }
    std::sort(steps.begin(), steps.end());
    for (const auto& [time, consume, i] : steps) {
      config.clock->run_until(time);
      if (!consume) {
        service.enqueue(jobs[i]);
      } else if (const auto hint = service.wait_for(jobs[i])) {
        EXPECT_EQ(*hint, expected.at(jobs[i].job_id)) << jobs[i].job_id;
      }
    }
    config.clock->run_all();

    const auto stats = service.stats();
    EXPECT_EQ(stats.enqueued + stats.dropped, jobs.size());
    EXPECT_EQ(stats.on_time + stats.late + stats.dropped, jobs.size());
    EXPECT_EQ(stats.hits + stats.misses, jobs.size());
    EXPECT_EQ(stats.hits, stats.on_time);
    EXPECT_EQ(stats.completed, stats.on_time + stats.late);
    EXPECT_EQ(service.held_hints(), 0u);
  }
}

// ----------------------------------------------------------- determinism

TEST(Determinism, EndToEndPipelineIsReproducible) {
  auto run_once = [] {
    trace::GeneratorConfig cfg = trace::canonical_cluster_config(1, 777);
    cfg.num_pipelines = 8;
    cfg.duration = 4.0 * 86400.0;
    const auto split =
        trace::split_train_test(trace::generate_cluster_trace(cfg));
    core::CategoryModelConfig mc;
    mc.num_categories = 6;
    mc.gbdt.num_rounds = 6;
    sim::MethodFactory factory(split.train, cost::Rates{}, mc);
    const auto cap = sim::quota_capacity(split.test, 0.05);
    return sim::run_method(factory, sim::MethodId::kAdaptiveRanking,
                           split.test, cap)
        .tco_savings_pct();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace byom
