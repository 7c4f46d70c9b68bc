#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace byom::trace {

namespace {

const char* const kColumns[] = {
    "job_id",          "cluster_id",       "job_key",
    "owner",
    "build_target",    "execution_name",   "pipeline_name",
    "step_name",       "user_name",        "arrival_time",
    "lifetime",        "peak_bytes",       "bytes_written",
    "bytes_read",      "avg_read_block",   "avg_write_block",
    "cache_hit",       "stripes",          "shards",
    "threads",         "workers",          "init_buckets",
    "buckets",         "records",          "req_shards",
    "hist_tcio",       "hist_size",        "hist_lifetime",
    "hist_density",    "tcio_hdd",         "io_density",
    "cost_hdd",        "cost_ssd",         "framework",
    "hint_lead",
};

// One CSV field with the column it came from, so parse errors name it.
struct Field {
  const char* column;
  const std::string& text;
};

[[noreturn]] void bad_field(const Field& field, const char* why) {
  throw std::runtime_error(std::string("trace CSV column '") + field.column +
                           "': " + why + ": '" + field.text + "'");
}

// Parses the whole field as T with std::from_chars: no leading whitespace,
// no trailing junk, no sign on unsigned types, and values that do not fit
// T are rejected rather than wrapped or truncated.
template <typename T>
T parse_field(const Field& field) {
  T value{};
  const char* first = field.text.data();
  const char* last = first + field.text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) bad_field(field, "out of range");
  if (ec != std::errc() || ptr != last) bad_field(field, "not a number");
  return value;
}

// Finite doubles only; negative values are legal (generated traces carry -1
// in the hist_* columns for jobs without history).
double to_double(const Field& field) {
  const double value = parse_field<double>(field);
  if (!std::isfinite(value)) bad_field(field, "not finite");
  return value;
}

bool to_flag(const Field& field) {
  if (field.text == "0") return false;
  if (field.text == "1") return true;
  bad_field(field, "expected 0 or 1");
}

std::string fmt(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  if (ec != std::errc()) throw std::runtime_error("to_chars failed");
  return std::string(buf, ptr);
}

}  // namespace

common::CsvTable to_csv(const Trace& trace) {
  common::CsvTable table;
  for (const char* c : kColumns) table.header.emplace_back(c);
  table.rows.reserve(trace.size());
  for (const Job& j : trace.jobs()) {
    std::vector<std::string> row;
    row.reserve(table.header.size());
    row.push_back(std::to_string(j.job_id));
    row.push_back(std::to_string(j.cluster_id));
    row.push_back(j.job_key);
    row.push_back(j.owner);
    row.push_back(j.build_target_name);
    row.push_back(j.execution_name);
    row.push_back(j.pipeline_name);
    row.push_back(j.step_name);
    row.push_back(j.user_name);
    row.push_back(fmt(j.arrival_time));
    row.push_back(fmt(j.lifetime));
    row.push_back(std::to_string(j.peak_bytes));
    row.push_back(std::to_string(j.io.bytes_written));
    row.push_back(std::to_string(j.io.bytes_read));
    row.push_back(fmt(j.io.avg_read_block));
    row.push_back(fmt(j.io.avg_write_block));
    row.push_back(fmt(j.io.dram_cache_hit_fraction));
    row.push_back(std::to_string(j.resources.bucket_sizing_initial_num_stripes));
    row.push_back(std::to_string(j.resources.bucket_sizing_num_shards));
    row.push_back(std::to_string(j.resources.bucket_sizing_num_worker_threads));
    row.push_back(std::to_string(j.resources.bucket_sizing_num_workers));
    row.push_back(std::to_string(j.resources.initial_num_buckets));
    row.push_back(std::to_string(j.resources.num_buckets));
    row.push_back(std::to_string(j.resources.records_written));
    row.push_back(std::to_string(j.resources.requested_num_shards));
    row.push_back(fmt(j.history.average_tcio));
    row.push_back(fmt(j.history.average_size));
    row.push_back(fmt(j.history.average_lifetime));
    row.push_back(fmt(j.history.average_io_density));
    row.push_back(fmt(j.tcio_hdd));
    row.push_back(fmt(j.io_density));
    row.push_back(fmt(j.cost_hdd));
    row.push_back(fmt(j.cost_ssd));
    row.push_back(j.framework_workload ? "1" : "0");
    row.push_back(fmt(j.hint_lead));
    table.rows.push_back(std::move(row));
  }
  return table;
}

Trace from_csv(const common::CsvTable& table) {
  std::vector<Job> jobs;
  jobs.reserve(table.rows.size());
  // Resolve all column indices up front (throws on schema mismatch).
  // `hint_lead` (the last column) is optional: traces exported before the
  // lead field existed load with zero leads instead of failing.
  std::vector<std::size_t> idx;
  idx.reserve(std::size(kColumns));
  constexpr std::size_t kNumRequired = std::size(kColumns) - 1;
  for (std::size_t c = 0; c < kNumRequired; ++c) {
    idx.push_back(table.column(kColumns[c]));
  }
  bool has_hint_lead = false;
  for (std::size_t c = 0; c < table.header.size(); ++c) {
    if (table.header[c] == kColumns[kNumRequired]) {
      idx.push_back(c);
      has_hint_lead = true;
      break;
    }
  }

  std::uint32_t cluster_id = 0;
  // Oracle replay, serving tables and feature matrices key jobs by id.
  std::unordered_set<std::uint64_t> ids;
  ids.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    if (row.size() < table.header.size()) {
      throw std::runtime_error("trace CSV row has too few fields");
    }
    std::size_t c = 0;
    const auto next = [&]() -> Field {
      const std::size_t i = c++;
      return {kColumns[i], row[idx[i]]};
    };
    Job j;
    j.job_id = parse_field<std::uint64_t>(next());
    if (!ids.insert(j.job_id).second) {
      throw std::runtime_error("trace CSV has duplicate job_id " +
                               std::to_string(j.job_id));
    }
    j.cluster_id = parse_field<std::uint32_t>(next());
    j.job_key = next().text;
    j.owner = next().text;
    j.build_target_name = next().text;
    j.execution_name = next().text;
    j.pipeline_name = next().text;
    j.step_name = next().text;
    j.user_name = next().text;
    j.arrival_time = to_double(next());
    const Field lifetime = next();
    j.lifetime = to_double(lifetime);
    // The oracles read a negative lifetime as an inverted interval that
    // occupies no capacity.
    if (j.lifetime < 0.0) {
      bad_field(lifetime,
                ("negative for job_id " + std::to_string(j.job_id)).c_str());
    }
    j.peak_bytes = parse_field<std::uint64_t>(next());
    j.io.bytes_written = parse_field<std::uint64_t>(next());
    j.io.bytes_read = parse_field<std::uint64_t>(next());
    j.io.avg_read_block = to_double(next());
    j.io.avg_write_block = to_double(next());
    j.io.dram_cache_hit_fraction = to_double(next());
    j.resources.bucket_sizing_initial_num_stripes =
        parse_field<std::int64_t>(next());
    j.resources.bucket_sizing_num_shards = parse_field<std::int64_t>(next());
    j.resources.bucket_sizing_num_worker_threads =
        parse_field<std::int64_t>(next());
    j.resources.bucket_sizing_num_workers = parse_field<std::int64_t>(next());
    j.resources.initial_num_buckets = parse_field<std::int64_t>(next());
    j.resources.num_buckets = parse_field<std::int64_t>(next());
    j.resources.records_written = parse_field<std::int64_t>(next());
    j.resources.requested_num_shards = parse_field<std::int64_t>(next());
    j.history.average_tcio = to_double(next());
    j.history.average_size = to_double(next());
    j.history.average_lifetime = to_double(next());
    j.history.average_io_density = to_double(next());
    j.tcio_hdd = to_double(next());
    j.io_density = to_double(next());
    j.cost_hdd = to_double(next());
    j.cost_ssd = to_double(next());
    j.framework_workload = to_flag(next());
    if (has_hint_lead) j.hint_lead = to_double(next());
    cluster_id = j.cluster_id;
    jobs.push_back(std::move(j));
  }
  return Trace(cluster_id, std::move(jobs));
}

void save_trace(const std::string& path, const Trace& trace) {
  common::write_csv_file(path, to_csv(trace));
}

Trace load_trace(const std::string& path) {
  return from_csv(common::read_csv_file(path));
}

}  // namespace byom::trace
