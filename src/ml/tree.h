// Single regression tree trained on histogram (binned) features with
// Newton gradients (XGBoost-style gain), plus its prediction path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/dataset.h"

namespace byom::ml {

struct TreeParams {
  int max_depth = 6;
  double lambda = 1.0;          // L2 regularization on leaf weights
  double min_split_gain = 1e-6;
  int min_samples_leaf = 20;
  double min_child_hessian = 1e-3;
};

class RegressionTree {
 public:
  // Tree nodes in build order (node 0 is the root). Exposed read-only so
  // the compiled flat-forest arena (ml/flat_forest.h) can re-lay the tree
  // out without this class knowing about the compiled format.
  struct Node {
    bool leaf = true;
    int feature = -1;
    float threshold = 0.0f;  // go left when value <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;  // leaf weight
  };

  // Trains on binned columns: codes[f][r] in [0, num_bins(f)).
  // grad/hess are per-row first/second order gradients; `rows` selects the
  // training subset (supports row subsampling).
  static RegressionTree fit(
      const std::vector<std::vector<std::uint8_t>>& codes,
      const Binner& binner, const std::vector<double>& grad,
      const std::vector<double>& hess, const std::vector<std::uint32_t>& rows,
      const TreeParams& params);

  // Predicts from raw (unbinned) feature values.
  double predict(const float* features) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  int depth() const;

  // Text (de)serialization: one line per node. load() throws
  // std::runtime_error on a truncated stream, a negative node count, a
  // negative split feature, or a child index outside (parent, count) —
  // build() always allocates a parent before its children, so every
  // trained tree satisfies the last check and predict() cannot loop or
  // read past the node array.
  void save(std::ostream& out) const;
  static RegressionTree load(std::istream& in);

  // Whether feature f is used by any split (for cheap split-count
  // importance).
  void add_split_counts(std::vector<int>& counts) const;

 private:
  std::vector<Node> nodes_;

  int build(const std::vector<std::vector<std::uint8_t>>& codes,
            const Binner& binner, const std::vector<double>& grad,
            const std::vector<double>& hess, std::vector<std::uint32_t>& rows,
            const TreeParams& params, int depth);
};

}  // namespace byom::ml
