#include "oracle/candidates.h"

#include <algorithm>

namespace byom::oracle {

CandidateSet build_candidates(const std::vector<trace::Job>& jobs,
                              Objective objective,
                              const cost::CostModel& model) {
  CandidateSet set;
  set.cands.reserve(jobs.size());
  set.points.reserve(jobs.size() * 2);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    const double v = job_value(j, objective, model);
    const double size = static_cast<double>(j.peak_bytes);
    // The max(.., 1) floor keeps zero-byte jobs finite (never 0/0 = NaN,
    // which would break the sort's strict weak ordering).
    const double byte_seconds = size * std::max(j.lifetime, 1.0);
    set.cands.push_back({i, v, size, j.arrival_time, j.end_time(),
                         v / std::max(byte_seconds, 1.0)});
    set.points.push_back(j.arrival_time);
    set.points.push_back(j.end_time());
  }
  std::sort(set.cands.begin(), set.cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.density > b.density;
            });
  return set;
}

Result to_result(std::size_t num_jobs, const std::vector<Candidate>& cands,
                 const std::vector<bool>& selected, double objective_value) {
  Result result;
  result.on_ssd.assign(num_jobs, false);
  result.objective_value = objective_value;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (selected[i]) {
      result.on_ssd[cands[i].index] = true;
      ++result.num_selected;
    }
  }
  return result;
}

}  // namespace byom::oracle
