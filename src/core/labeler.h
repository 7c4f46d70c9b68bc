// Category label design (paper section 4.2).
//
// The model predicts an "importance" ranking category per job:
//   category 0       — jobs whose TCO saving on SSD is negative (least
//                      important; the oracle never admits them), and
//   categories 1..N-1 — buckets of I/O density among cost-saving jobs, in
//                      increasing density order (higher = more important).
//
// The paper chooses *equal-frequency* (equi-depth) density buckets after
// finding that linearly and logarithmically spaced buckets "result in a
// heavily imbalanced data set" (Figure 4 discussion). All three spacings
// are implemented so the ablation bench can demonstrate that finding.
#pragma once

#include <iosfwd>
#include <vector>

#include "trace/job.h"

namespace byom::core {

// The reserved label id: jobs whose TCO saving on SSD is negative land in
// category 0, and Algorithm 1's admission threshold never drops below 1
// (policy/adaptive.h), so category-0 jobs are never admitted. Category
// *producers* that guess rather than measure — the hash fallback in
// particular — must therefore only emit [1, num_categories - 1]: assigning
// an unknown job the do-not-admit class would silently bar it from SSD
// forever. See make_hash_provider (core/category_provider.h).
inline constexpr int kDoNotAdmitCategory = 0;

enum class LabelSpacing {
  kEquiDepth,    // paper's choice: equal-frequency quantile buckets
  kLinear,       // equal-width buckets over [min, max] density
  kLogarithmic,  // equal-width buckets over log-density
};

class CategoryLabeler {
 public:
  CategoryLabeler() = default;

  // Learns density thresholds from a training population.
  static CategoryLabeler fit(const std::vector<trace::Job>& train_jobs,
                             int num_categories,
                             LabelSpacing spacing = LabelSpacing::kEquiDepth);

  int num_categories() const { return num_categories_; }

  // True category of a job from its post-execution measurements.
  int category_of(const trace::Job& job) const;

  // Label vector for a job population.
  std::vector<int> label(const std::vector<trace::Job>& jobs) const;

  // Count of jobs per category; used to quantify class imbalance.
  std::vector<int> category_histogram(
      const std::vector<trace::Job>& jobs) const;

  // Text (de)serialization. load() throws std::runtime_error on a bad
  // header, a truncated stream, or a threshold count that does not fit the
  // category count: a fitted labeler has N >= 2 categories and at most
  // N - 2 thresholds, the unfitted one N == 0 and none.
  void save(std::ostream& out) const;
  static CategoryLabeler load(std::istream& in);

 private:
  int num_categories_ = 0;
  // Interior thresholds between density buckets, ascending (N-2 values).
  std::vector<double> density_thresholds_;
};

}  // namespace byom::core
