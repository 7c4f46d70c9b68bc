// Parameterized property tests: invariants that must hold across archetype,
// quota, category-count, and configuration sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "core/category_provider.h"
#include "core/labeler.h"
#include "oracle/greedy_oracle.h"
#include "policy/adaptive.h"
#include "policy/first_fit.h"
#include "policy/oracle_replay.h"
#include "harness/experiment.h"
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
