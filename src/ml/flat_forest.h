// FlatForest — the compiled inference form of a boosted forest.
//
// The training-side RegressionTree stores 40-byte heterogeneous nodes
// (bool + int feature + float threshold + two child ints + double leaf
// value) in per-tree std::vectors. That layout is right for building trees
// and wrong for serving them: every node visit drags a whole cache line of
// mostly-unused fields, and the forest for one model is scattered across
// hundreds of allocations.
//
// FlatForest re-lays the whole forest out once, at train()/load() time,
// into one contiguous SoA arena:
//
//   threshold_[i]    float      split threshold of node i
//   feature_[i]      uint16_t   split feature of node i
//   left_[i]         int32_t    left-child slot, or, when negative,
//                               ~leaf: -left_[i]-1 indexes leaf_value_
//   leaf_value_[j]   double     leaf weights, separate array
//
// Trees are re-numbered breadth-first so the two children of any internal
// node occupy adjacent slots: the traversal step becomes the branch-light
//   idx = left + (x[feature] > threshold)
// spelled !(x <= threshold), so every input — NaN and +-inf included —
// takes the same branch as RegressionTree::predict. Roots are grouped per
// class, in boosting order within the class, so each accumulator sums the
// same terms in the same order as the plain per-tree walk
// (GbdtClassifier::reference_scores, GbdtRegressor::reference_predict):
// every score bit is identical to that oracle.
//
// There is one kernel: score_into walks one row, and score_strided is a
// plain loop of it over a contiguous strided row block. Measured on the
// repository's 120- and 300-tree models, a blocked, depth-stepped batch
// walk never beat the single-row walk by more than host noise at any batch
// size (1, 8, 64 or a whole trace), and lost 2.5-3x on the single-row
// batches of the online serving path.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tree.h"

namespace byom::ml {

class FlatForest {
 public:
  FlatForest() = default;

  // Compiles `trees` into the arena. Tree t contributes to class
  // (t % num_classes), matching GbdtClassifier's round-major tree layout;
  // a regressor is the num_classes == 1 case. `base_score` seeds every
  // accumulator (the regressor's mean target; 0 for the classifier).
  // Throws std::invalid_argument when a split feature does not fit the
  // packed uint16_t feature index.
  static FlatForest compile(const std::vector<RegressionTree>& trees,
                            int num_classes, double learning_rate,
                            double base_score = 0.0);

  bool compiled() const { return num_classes_ > 0; }
  int num_classes() const { return num_classes_; }
  std::size_t num_trees() const { return roots_.size(); }
  std::size_t num_nodes() const { return left_.size(); }
  std::size_t num_leaves() const { return leaf_value_.size(); }

  // Raw per-class scores for one row: out[0 .. num_classes). Bit-identical
  // to the per-tree reference walk; allocation-free.
  void score_into(const float* row, double* out) const;

  // Batch scoring over n rows read straight off a contiguous strided block
  // (row r at base + r * row_stride): score_into per row, filling
  // out[r * num_classes + k].
  void score_strided(const float* base, std::size_t row_stride,
                     std::size_t n, double* out) const;

 private:
  // Compiles one tree into the arena; returns its root slot.
  int compile_tree(const std::vector<RegressionTree::Node>& nodes);

  int num_classes_ = 0;
  double learning_rate_ = 0.0;
  double base_score_ = 0.0;
  // SoA node arena; slot i of the three arrays is one packed node.
  std::vector<float> threshold_;
  std::vector<std::uint16_t> feature_;
  std::vector<std::int32_t> left_;
  std::vector<double> leaf_value_;
  // Root slots grouped per class: class c's trees (boosting order) are
  // roots_[class_offset_[c] .. class_offset_[c + 1]).
  std::vector<std::int32_t> roots_;
  std::vector<std::uint32_t> class_offset_;
};

}  // namespace byom::ml
