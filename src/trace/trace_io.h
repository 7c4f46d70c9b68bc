// CSV persistence for traces: lets users export generated traces, inspect
// them with standard tools, and re-load them for experiments.
#pragma once

#include <string>

#include "common/csv.h"
#include "trace/trace.h"

namespace byom::trace {

// Serialize a trace to a CSV table (one row per job, stable column order).
common::CsvTable to_csv(const Trace& trace);

// Parse a trace from a CSV table produced by to_csv. Throws
// std::runtime_error on malformed numbers, a duplicate job_id or a negative
// lifetime, and std::out_of_range on a missing column.
Trace from_csv(const common::CsvTable& table);

// File-level convenience wrappers.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace byom::trace
