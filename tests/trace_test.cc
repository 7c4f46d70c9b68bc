#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <unordered_map>

#include "common/time_util.h"
#include "common/units.h"
#include "trace/archetypes.h"
#include "trace/generator.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace byom::trace {
namespace {

Trace small_trace() {
  GeneratorConfig cfg;
  cfg.cluster_id = 1;
  cfg.seed = 99;
  cfg.num_pipelines = 12;
  cfg.duration = 4.0 * common::kSecondsPerDay;
  return generate_cluster_trace(cfg);
}

Job make_job(double arrival, double lifetime, std::uint64_t bytes) {
  Job j;
  static std::uint64_t next_id = 1;
  j.job_id = next_id++;
  j.arrival_time = arrival;
  j.lifetime = lifetime;
  j.peak_bytes = bytes;
  j.io.bytes_written = bytes;
  j.io.bytes_read = bytes;
  j.compute_costs(cost::CostModel{});
  return j;
}

// ---------------------------------------------------------------- Trace

TEST(Trace, SortsByArrival) {
  std::vector<Job> jobs{make_job(30, 10, 1), make_job(10, 10, 1),
                        make_job(20, 10, 1)};
  Trace t(0, jobs);
  EXPECT_DOUBLE_EQ(t.jobs()[0].arrival_time, 10);
  EXPECT_DOUBLE_EQ(t.jobs()[1].arrival_time, 20);
  EXPECT_DOUBLE_EQ(t.jobs()[2].arrival_time, 30);
}

TEST(Trace, StartEndTimes) {
  Trace t(0, {make_job(5, 100, 1), make_job(10, 10, 1)});
  EXPECT_DOUBLE_EQ(t.start_time(), 5.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 105.0);
}

TEST(Trace, EmptyTraceDefaults) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.start_time(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 0.0);
  EXPECT_EQ(t.peak_concurrent_bytes(), 0u);
}

TEST(Trace, PeakConcurrentBytes) {
  // Two 1 GiB jobs overlap during [10, 20): peak = 2 GiB.
  Trace t(0, {make_job(0, 20, common::kGiB), make_job(10, 20, common::kGiB)});
  EXPECT_EQ(t.peak_concurrent_bytes(), 2 * common::kGiB);
}

TEST(Trace, PeakWithDisjointJobs) {
  Trace t(0, {make_job(0, 5, common::kGiB), make_job(10, 5, common::kGiB)});
  EXPECT_EQ(t.peak_concurrent_bytes(), common::kGiB);
}

TEST(Trace, SliceFiltersByArrival) {
  Trace t(0, {make_job(5, 1, 1), make_job(15, 1, 1), make_job(25, 1, 1)});
  const Trace mid = t.slice(10, 20);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_DOUBLE_EQ(mid.jobs()[0].arrival_time, 15.0);
}

TEST(Trace, TotalCostAllHdd) {
  const auto a = make_job(0, 100, common::kGiB);
  const auto b = make_job(10, 100, common::kGiB);
  Trace t(0, {a, b});
  EXPECT_NEAR(t.total_cost_all_hdd(), a.cost_hdd + b.cost_hdd, 1e-12);
}

TEST(Job, ComputeCostsFillsDerived) {
  auto j = make_job(0, 600, 4 * common::kGiB);
  EXPECT_GT(j.tcio_hdd, 0.0);
  EXPECT_GT(j.io_density, 0.0);
  EXPECT_GT(j.cost_hdd, 0.0);
  EXPECT_GT(j.cost_ssd, 0.0);
}

// ------------------------------------------------------------ archetypes

TEST(Archetypes, CatalogHasAllIds) {
  EXPECT_EQ(archetype_catalog().size(),
            static_cast<std::size_t>(ArchetypeId::kCount));
}

TEST(Archetypes, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& a : archetype_catalog()) names.insert(a.name);
  EXPECT_EQ(names.size(), archetype_catalog().size());
}

TEST(Archetypes, NonFrameworkFamiliesFlagged) {
  EXPECT_FALSE(archetype(ArchetypeId::kCompressUpload).framework);
  EXPECT_FALSE(archetype(ArchetypeId::kMlTrainingCkpt).framework);
  EXPECT_TRUE(archetype(ArchetypeId::kStreamingShuffle).framework);
}

TEST(Archetypes, DenseFamiliesHaveSmallerReadBlocks) {
  EXPECT_LT(archetype(ArchetypeId::kDbQuery).read_block_mu,
            archetype(ArchetypeId::kMlCheckpoint).read_block_mu);
}

// ------------------------------------------------------------- generator

TEST(Generator, DeterministicForSeed) {
  const Trace a = small_trace();
  const Trace b = small_trace();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].job_id, b.jobs()[i].job_id);
    EXPECT_DOUBLE_EQ(a.jobs()[i].arrival_time, b.jobs()[i].arrival_time);
    EXPECT_EQ(a.jobs()[i].peak_bytes, b.jobs()[i].peak_bytes);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg;
  cfg.num_pipelines = 8;
  cfg.duration = 2.0 * common::kSecondsPerDay;
  cfg.seed = 1;
  const Trace a = generate_cluster_trace(cfg);
  cfg.seed = 2;
  const Trace b = generate_cluster_trace(cfg);
  bool any_diff = a.size() != b.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i) {
    any_diff = a.jobs()[i].peak_bytes != b.jobs()[i].peak_bytes;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, JobsAreSortedAndInRange) {
  const Trace t = small_trace();
  double prev = -1.0;
  for (const auto& j : t.jobs()) {
    EXPECT_GE(j.arrival_time, prev);
    EXPECT_GE(j.arrival_time, 0.0);
    EXPECT_LT(j.arrival_time, 4.0 * common::kSecondsPerDay + 1800.0);
    prev = j.arrival_time;
  }
}

TEST(Generator, JobsHavePositiveMeasurements) {
  const Trace t = small_trace();
  for (const auto& j : t.jobs()) {
    EXPECT_GT(j.peak_bytes, 0u);
    EXPECT_GT(j.lifetime, 0.0);
    EXPECT_GT(j.io.bytes_written, 0u);
    EXPECT_GT(j.cost_hdd, 0.0);
    EXPECT_GT(j.cost_ssd, 0.0);
  }
}

TEST(Generator, MetadataStringsAreStructured) {
  const Trace t = small_trace();
  for (const auto& j : t.jobs()) {
    EXPECT_NE(j.pipeline_name.find("org_"), std::string::npos);
    EXPECT_NE(j.build_target_name.find("//"), std::string::npos);
    EXPECT_NE(j.execution_name.find(".launcher.Main"), std::string::npos);
    EXPECT_NE(j.step_name.find("shuffle"), std::string::npos);
    EXPECT_FALSE(j.user_name.empty());
    EXPECT_EQ(j.job_key, j.pipeline_name + "/" + j.step_name);
  }
}

TEST(Generator, RecurringJobsShareKeys) {
  const Trace t = small_trace();
  std::unordered_map<std::string, int> counts;
  for (const auto& j : t.jobs()) ++counts[j.job_key];
  int recurring = 0;
  for (const auto& [key, n] : counts) {
    if (n >= 3) ++recurring;
  }
  EXPECT_GT(recurring, 5);  // pipelines run many times over 4 days
}

TEST(Generator, HistoryAppearsAfterFirstExecution) {
  const Trace t = small_trace();
  std::unordered_map<std::string, int> seen;
  for (const auto& j : t.jobs()) {
    const int n = seen[j.job_key]++;
    if (n == 0) {
      EXPECT_FALSE(j.history.has_history());
    } else {
      EXPECT_TRUE(j.history.has_history());
      EXPECT_GT(j.history.average_size, 0.0);
    }
  }
}

TEST(Generator, HistoryApproximatesPipelineScale) {
  const Trace t = small_trace();
  for (const auto& j : t.jobs()) {
    if (!j.history.has_history()) continue;
    // History is a noisy average of the same pipeline's past sizes; it
    // should be within two orders of magnitude of the current job.
    const double ratio =
        j.history.average_size / static_cast<double>(j.peak_bytes);
    EXPECT_GT(ratio, 1e-3);
    EXPECT_LT(ratio, 1e3);
  }
}

TEST(Generator, MixedSavingSigns) {
  const Trace t = small_trace();
  int positive = 0, negative = 0;
  for (const auto& j : t.jobs()) {
    (j.tco_saving() > 0 ? positive : negative)++;
  }
  EXPECT_GT(positive, 0);
  EXPECT_GT(negative, 0);
}

TEST(Generator, RejectsBadConfig) {
  GeneratorConfig cfg;
  cfg.num_pipelines = 0;
  EXPECT_THROW(generate_cluster_trace(cfg), std::invalid_argument);
  cfg.num_pipelines = 4;
  cfg.archetype_weights = {1.0};  // wrong size
  EXPECT_THROW(generate_cluster_trace(cfg), std::invalid_argument);
}

TEST(Generator, CanonicalConfigsVaryByCluster) {
  const auto c0 = canonical_cluster_config(0);
  const auto c1 = canonical_cluster_config(1);
  EXPECT_NE(c0.archetype_weights, c1.archetype_weights);
  EXPECT_NE(c0.seed, c1.seed);
}

TEST(Generator, SpecialClusterRunsRareWorkloads) {
  const auto c3 = canonical_cluster_config(3);
  // Cluster 3 only runs video + ML checkpoint workloads (Figure 8's C3).
  double other = 0.0;
  for (std::size_t i = 0; i < c3.archetype_weights.size(); ++i) {
    if (i != static_cast<std::size_t>(ArchetypeId::kVideoProcessing) &&
        i != static_cast<std::size_t>(ArchetypeId::kMlCheckpoint)) {
      other += c3.archetype_weights[i];
    }
  }
  EXPECT_DOUBLE_EQ(other, 0.0);
}

TEST(Generator, TrainTestSplitCoversAll) {
  GeneratorConfig cfg;
  cfg.num_pipelines = 10;
  cfg.seed = 5;
  const Trace t = generate_cluster_trace(cfg);  // default 14 days
  const auto split = split_train_test(t);
  EXPECT_EQ(split.train.size() + split.test.size(), t.size());
  EXPECT_GT(split.train.size(), t.size() / 4);
  EXPECT_GT(split.test.size(), t.size() / 4);
  // All training arrivals precede all test arrivals.
  EXPECT_LE(split.train.end_time() > 0 ? split.train.jobs().back().arrival_time
                                       : 0.0,
            split.test.jobs().front().arrival_time);
}

TEST(Generator, FrameworkFlagFollowsArchetype) {
  GeneratorConfig cfg;
  cfg.num_pipelines = 10;
  cfg.seed = 6;
  cfg.duration = 2 * common::kSecondsPerDay;
  std::vector<double> w(static_cast<std::size_t>(ArchetypeId::kCount), 0.0);
  w[static_cast<std::size_t>(ArchetypeId::kCompressUpload)] = 1.0;
  cfg.archetype_weights = w;
  const Trace t = generate_cluster_trace(cfg);
  ASSERT_FALSE(t.empty());
  for (const auto& j : t.jobs()) EXPECT_FALSE(j.framework_workload);
}

// --------------------------------------------------------------- trace_io

TEST(TraceIo, CsvRoundTripPreservesJobs) {
  const Trace t = small_trace();
  const auto table = to_csv(t);
  const Trace back = from_csv(table);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Job& a = t.jobs()[i];
    const Job& b = back.jobs()[i];
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.job_key, b.job_key);
    EXPECT_EQ(a.pipeline_name, b.pipeline_name);
    EXPECT_EQ(a.user_name, b.user_name);
    EXPECT_DOUBLE_EQ(a.arrival_time, b.arrival_time);
    EXPECT_DOUBLE_EQ(a.lifetime, b.lifetime);
    EXPECT_EQ(a.peak_bytes, b.peak_bytes);
    EXPECT_EQ(a.io.bytes_written, b.io.bytes_written);
    EXPECT_DOUBLE_EQ(a.cost_hdd, b.cost_hdd);
    EXPECT_DOUBLE_EQ(a.cost_ssd, b.cost_ssd);
    EXPECT_EQ(a.resources.num_buckets, b.resources.num_buckets);
    EXPECT_DOUBLE_EQ(a.history.average_tcio, b.history.average_tcio);
    EXPECT_EQ(a.framework_workload, b.framework_workload);
  }
}

TEST(TraceIo, FileRoundTrip) {
  const Trace t = small_trace();
  const auto path =
      std::filesystem::temp_directory_path() / "byom_trace_test.csv";
  save_trace(path.string(), t);
  const Trace back = load_trace(path.string());
  EXPECT_EQ(back.size(), t.size());
  EXPECT_EQ(back.cluster_id(), t.cluster_id());
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingColumnThrows) {
  common::CsvTable table;
  table.header = {"job_id"};
  table.rows = {{"1"}};
  EXPECT_THROW(from_csv(table), std::out_of_range);
}

TEST(TraceIo, MalformedNumberThrows) {
  const Trace t = small_trace();
  auto table = to_csv(t);
  table.rows[0][table.column("lifetime")] = "not_a_number";
  EXPECT_THROW(from_csv(table), std::runtime_error);
}

// Oracle replay maps job_id -> decision, so a repeated id would silently
// overwrite the first job's decision; loading names the id instead.
TEST(TraceIo, DuplicateJobIdThrows) {
  const Trace t = small_trace();
  ASSERT_GE(t.size(), 2u);
  auto table = to_csv(t);
  const std::size_t id = table.column("job_id");
  table.rows[1][id] = table.rows[0][id];
  try {
    from_csv(table);
    ADD_FAILURE() << "accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate job_id " +
                                         table.rows[0][id]),
              std::string::npos)
        << e.what();
  }
}

// A negative lifetime is an inverted interval the oracles would treat as
// occupying no capacity; loading names the column and the job instead.
TEST(TraceIo, NegativeLifetimeThrows) {
  const Trace t = small_trace();
  auto table = to_csv(t);
  table.rows[0][table.column("lifetime")] = "-600";
  const std::string id = table.rows[0][table.column("job_id")];
  try {
    from_csv(table);
    ADD_FAILURE() << "accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lifetime"), std::string::npos) << what;
    EXPECT_NE(what.find("job_id " + id), std::string::npos) << what;
  }
  // Zero stays legal: a job that ends as it starts.
  table.rows[0][table.column("lifetime")] = "0";
  EXPECT_EQ(from_csv(table).jobs()[0].lifetime, 0.0);
}

// Each malformed field throws std::runtime_error naming its column instead
// of loading a wrapped, truncated or partially parsed value.
TEST(TraceIo, MalformedFieldTableThrows) {
  const struct {
    const char* column;
    const char* value;
  } cases[] = {
      // A sign on an unsigned field.
      {"job_id", "-1"},
      {"peak_bytes", "-5"},
      {"bytes_read", "+5"},
      // Values that do not fit the field's type.
      {"job_id", "18446744073709551616"},
      {"cluster_id", "4294967297"},
      {"buckets", "9223372036854775808"},
      {"lifetime", "1e999"},
      // Trailing junk, leading whitespace, an empty field.
      {"job_id", "12abc"},
      {"buckets", "7x"},
      {"lifetime", "1.5s"},
      {"records", " 3"},
      {"arrival_time", ""},
      // Non-finite doubles.
      {"lifetime", "nan"},
      {"cost_hdd", "inf"},
      {"hist_tcio", "-inf"},
      // A flag that is neither 0 nor 1.
      {"framework", "yes"},
  };
  const Trace t = small_trace();
  for (const auto& bad : cases) {
    SCOPED_TRACE(std::string(bad.column) + "=" + bad.value);
    auto table = to_csv(t);
    table.rows[0][table.column(bad.column)] = bad.value;
    try {
      from_csv(table);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(bad.column), std::string::npos)
          << e.what();
    }
  }
}

// Negative doubles are data, not errors: generated traces carry -1 in the
// history columns of jobs without a prior run.
TEST(TraceIo, NegativeHistoryValuesLoad) {
  const Trace t = small_trace();
  auto table = to_csv(t);
  table.rows[0][table.column("hist_tcio")] = "-1";
  table.rows[0][table.column("hist_density")] = "-1";
  const Trace back = from_csv(table);
  EXPECT_EQ(back.jobs()[0].history.average_tcio, -1.0);
  EXPECT_EQ(back.jobs()[0].history.average_io_density, -1.0);
}

}  // namespace
}  // namespace byom::trace
