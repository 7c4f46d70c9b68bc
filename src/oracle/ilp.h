// Clairvoyant oracle for the data placement ILP (paper section 3.1):
//
//   max  sum_i x_i * v_i                (v_i = cHDD_i - cSSD_i, or TCIO_i)
//   s.t. sum_{i live at t} x_i * s_i <= M   for all t
//        x_i in {0, 1}
//
// This is a *temporal knapsack*. Two solvers are provided:
//   * solve_exact:  branch-and-bound with a positive-suffix bound; certified
//                   optimal, exponential worst case — use for <= ~24 jobs
//                   (unit tests verify the scalable solver against it).
//   * greedy_oracle.h: two greedy passes (density order, value order);
//                   O(N log N), used at cluster scale, with no
//                   constant-factor guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "trace/trace.h"

namespace byom::oracle {

enum class Objective {
  kTco,   // maximize TCO savings (values can be negative -> never selected)
  kTcio,  // maximize TCIO-seconds moved off HDD (values always >= 0)
};

struct Result {
  std::vector<bool> on_ssd;  // parallel to the job vector handed in
  double objective_value = 0.0;
  std::size_t num_selected = 0;
};

// Per-job value under an objective.
double job_value(const trace::Job& job, Objective objective,
                 const cost::CostModel& model);

// Exact branch & bound. Throws std::invalid_argument for > 28 jobs (the
// intent is tests and tiny headroom studies; use the greedy at scale).
Result solve_exact(const std::vector<trace::Job>& jobs,
                   std::uint64_t ssd_capacity_bytes, Objective objective,
                   const cost::CostModel& model);

}  // namespace byom::oracle
