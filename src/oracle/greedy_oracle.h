// Scalable oracle: value-density greedy over a capacity timeline.
//
// Two greedy passes admit jobs while they fit: one in decreasing order of
// value per byte-second, one in decreasing order of value. The better pass
// wins. Instances of at most `exact_below` jobs are solved exactly instead.
//
// There is no constant-factor guarantee. On the 1,990 instances of
// parameters 0-1999 of GreedyVsExact's recipe (tests/oracle_test.cc) with a
// positive optimum, the pure heuristic reaches the certified
// branch-and-bound optimum on 64.4% and 85% of it or more on 95.7%; its
// median ratio is 1.0, its mean 0.975 and its worst 0.498.
#pragma once

#include <cstdint>

#include "oracle/ilp.h"

namespace byom::oracle {

struct GreedyOptions {
  // Instances with at most this many jobs are solved exactly via
  // branch-and-bound (certified optimum); 0 forces the pure heuristic.
  std::size_t exact_below = 22;
};

Result solve_greedy(const std::vector<trace::Job>& jobs,
                    std::uint64_t ssd_capacity_bytes, Objective objective,
                    const cost::CostModel& model,
                    const GreedyOptions& options = GreedyOptions{});

}  // namespace byom::oracle
