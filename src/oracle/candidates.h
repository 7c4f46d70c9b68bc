// The solvers' shared view of a job set (internal to oracle/): one
// candidate per job, in the order both solvers visit them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oracle/ilp.h"

namespace byom::oracle {

struct Candidate {
  std::size_t index;  // into the original job vector
  double value;       // job_value under the objective
  double size;        // peak bytes
  double a, e;        // live interval [a, e)
  double density;     // value / max(size * max(lifetime, 1), 1)
};

struct CandidateSet {
  std::vector<Candidate> cands;  // decreasing density
  std::vector<double> points;    // every interval endpoint, for the timeline
};

CandidateSet build_candidates(const std::vector<trace::Job>& jobs,
                              Objective objective,
                              const cost::CostModel& model);

// Maps a selection parallel to `cands` back onto the job vector.
Result to_result(std::size_t num_jobs, const std::vector<Candidate>& cands,
                 const std::vector<bool>& selected, double objective_value);

}  // namespace byom::oracle
