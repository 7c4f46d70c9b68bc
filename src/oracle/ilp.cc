#include "oracle/ilp.h"

#include <algorithm>
#include <stdexcept>

#include "oracle/candidates.h"
#include "oracle/timeline.h"

namespace byom::oracle {

double job_value(const trace::Job& job, Objective objective,
                 const cost::CostModel& model) {
  switch (objective) {
    case Objective::kTco:
      return job.tco_saving();
    case Objective::kTcio:
      return model.tcio_seconds_hdd(job.cost_inputs());
  }
  return 0.0;
}

namespace {

struct BnbState {
  const std::vector<Candidate>* cands = nullptr;
  double capacity = 0.0;
  CapacityTimeline* timeline = nullptr;
  std::vector<bool> chosen;
  std::vector<bool> best_chosen;
  double value = 0.0;
  double best_value = 0.0;
  std::vector<double> suffix_positive;  // sum of positive values from i on
};

void bnb(BnbState& s, std::size_t i) {
  const auto& cands = *s.cands;
  if (i == cands.size()) {
    if (s.value > s.best_value) {
      s.best_value = s.value;
      s.best_chosen = s.chosen;
    }
    return;
  }
  // Bound: even taking every remaining positive-value job can't beat best.
  if (s.value + s.suffix_positive[i] <= s.best_value) return;

  const Candidate& c = cands[i];
  // Branch 1: take (if it fits and helps).
  if (c.value > 0.0 &&
      s.timeline->max_in(c.a, c.e) + c.size <= s.capacity + 1e-6) {
    s.timeline->add(c.a, c.e, c.size);
    s.chosen[i] = true;
    s.value += c.value;
    bnb(s, i + 1);
    s.value -= c.value;
    s.chosen[i] = false;
    s.timeline->add(c.a, c.e, -c.size);
  }
  // Branch 2: skip.
  bnb(s, i + 1);
}

}  // namespace

Result solve_exact(const std::vector<trace::Job>& jobs,
                   std::uint64_t ssd_capacity_bytes, Objective objective,
                   const cost::CostModel& model) {
  if (jobs.size() > 28) {
    throw std::invalid_argument(
        "solve_exact is exponential; use the greedy oracle above 28 jobs");
  }
  // Density order is only the visiting order; it greatly improves pruning.
  const CandidateSet set = build_candidates(jobs, objective, model);
  const std::vector<Candidate>& cands = set.cands;
  CapacityTimeline timeline(set.points);
  BnbState s;
  s.cands = &cands;
  s.capacity = static_cast<double>(ssd_capacity_bytes);
  s.timeline = &timeline;
  s.chosen.assign(cands.size(), false);
  s.best_chosen = s.chosen;
  s.suffix_positive.assign(cands.size() + 1, 0.0);
  for (std::size_t i = cands.size(); i-- > 0;) {
    s.suffix_positive[i] =
        s.suffix_positive[i + 1] + std::max(0.0, cands[i].value);
  }
  bnb(s, 0);
  return to_result(jobs.size(), cands, s.best_chosen, s.best_value);
}

}  // namespace byom::oracle
