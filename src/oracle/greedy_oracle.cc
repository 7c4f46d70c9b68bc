#include "oracle/greedy_oracle.h"

#include <algorithm>
#include <vector>

#include "oracle/candidates.h"
#include "oracle/timeline.h"

namespace byom::oracle {

namespace {

struct GreedyRun {
  std::vector<bool> selected;  // parallel to the candidates
  double total_value = 0.0;
};

// One greedy pass: admit candidates in `order` while they fit.
GreedyRun run_pass(const CandidateSet& set,
                   const std::vector<std::size_t>& order, double capacity) {
  CapacityTimeline timeline(set.points);
  GreedyRun run;
  run.selected.assign(set.cands.size(), false);
  for (std::size_t i : order) {
    const Candidate& c = set.cands[i];
    if (c.value <= 0.0) continue;  // never helps the objective
    if (c.size > capacity) continue;
    if (timeline.max_in(c.a, c.e) + c.size <= capacity + 1e-6) {
      timeline.add(c.a, c.e, c.size);
      run.selected[i] = true;
      run.total_value += c.value;
    }
  }
  return run;
}

}  // namespace

Result solve_greedy(const std::vector<trace::Job>& jobs,
                    std::uint64_t ssd_capacity_bytes, Objective objective,
                    const cost::CostModel& model,
                    const GreedyOptions& options) {
  if (jobs.size() <= options.exact_below) {
    // Small enough for a certified optimum.
    return solve_exact(jobs, ssd_capacity_bytes, objective, model);
  }
  const double capacity = static_cast<double>(ssd_capacity_bytes);
  const CandidateSet set = build_candidates(jobs, objective, model);

  // Admission order 1: by density (classic fractional-knapsack heuristic).
  std::vector<std::size_t> density_order(set.cands.size());
  for (std::size_t i = 0; i < set.cands.size(); ++i) density_order[i] = i;
  // Admission order 2: by absolute value. Wins when one big-value job is
  // worth more than the small dense jobs that would crowd it out.
  std::vector<std::size_t> value_order = density_order;
  std::sort(value_order.begin(), value_order.end(),
            [&](std::size_t a, std::size_t b) {
              return set.cands[a].value > set.cands[b].value;
            });

  GreedyRun best = run_pass(set, density_order, capacity);
  GreedyRun by_value = run_pass(set, value_order, capacity);
  if (by_value.total_value > best.total_value) best = std::move(by_value);
  return to_result(jobs.size(), set.cands, best.selected, best.total_value);
}

}  // namespace byom::oracle
