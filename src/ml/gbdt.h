// Gradient-boosted trees: multiclass softmax classifier and least-squares
// regressor, both built on the histogram RegressionTree.
//
// This stands in for the Yggdrasil Decision Forests models the paper uses
// (15-class categorical pointwise ranking model, <= 300 trees, depth <= 6).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/tree.h"

namespace byom::ml {

struct GbdtParams {
  // Boosting stops when either rounds or the total tree budget is reached
  // (the paper caps total trees at 300 for its 15-class models).
  int num_rounds = 40;
  int max_trees_total = 300;
  double learning_rate = 0.15;
  double row_subsample = 0.8;
  int max_bins = 64;
  std::uint64_t seed = 7;
  TreeParams tree;
};

// Multiclass classifier with softmax cross-entropy Newton boosting: each
// round fits one tree per class on (p_k - y_k, p_k (1 - p_k)).
class GbdtClassifier {
 public:
  GbdtClassifier() = default;

  void train(const Dataset& data, const std::vector<int>& labels,
             int num_classes, const GbdtParams& params = GbdtParams{});

  int num_classes() const { return num_classes_; }
  std::size_t num_trees() const;
  bool trained() const { return num_classes_ > 0; }

  // Raw per-class scores and softmax probabilities for one feature row.
  std::vector<double> scores(const float* features) const;
  std::vector<double> predict_proba(const float* features) const;
  int predict(const float* features) const;

  // Zero-allocation single-row scoring: fills out[0 .. num_classes()) with
  // the raw per-class scores, bit-identical to scores().
  void scores_into(const float* features, double* out) const;

  // Batched inference over n rows of a contiguous strided block (row r at
  // base + r * row_stride: FeatureMatrix storage, gathered scratch
  // blocks): the single-row kernel per row, so scores are bit-identical to
  // scores_into and classes to predict(). scores_batch fills
  // out[r * num_classes() + k] (n * num_classes() doubles); predict_batch
  // fills out[0 .. n) with each row's argmax, scoring into a stack buffer
  // without staging an n x k block.
  void scores_batch(const float* base, std::size_t row_stride, std::size_t n,
                    double* out) const;
  void predict_batch(const float* base, std::size_t row_stride,
                     std::size_t n, int* out) const;

  // Reference oracle: the plain per-tree RegressionTree::predict walk in
  // boosting order, out[t % k] += learning_rate * tree_t(row) over a
  // zeroed out[0 .. num_classes()). Every path above runs the compiled
  // FlatForest; this one exists so tests can check those kernels against
  // the forest's semantics exactly. Not for production paths.
  void reference_scores(const float* row, double* out) const;

  const FlatForest& compiled_forest() const { return forest_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }

  // Text (de)serialization; the format is stable and human-inspectable.
  // load() throws std::runtime_error on a truncated stream, a negative
  // class count, a tree count that is not a multiple of the class count
  // (classes == 0 is allowed only with no trees: the untrained model), a
  // non-finite learning rate, or a malformed tree (RegressionTree::load).
  void save(std::ostream& out) const;
  static GbdtClassifier load(std::istream& in);
  void save_file(const std::string& path) const;
  static GbdtClassifier load_file(const std::string& path);

  // Number of splits using each feature, summed over all trees.
  std::vector<int> split_counts(std::size_t num_features) const;

 private:
  void recompile();

  int num_classes_ = 0;
  double learning_rate_ = 0.15;
  // trees_[round * num_classes_ + k]
  std::vector<RegressionTree> trees_;
  // Recompiled on every train()/load() exit; all inference routes through
  // it. Uncompiled (no classes) only while the model is untrained, when
  // scores are empty.
  FlatForest forest_;
};

// Scalar regressor with squared loss (grad = pred - target, hess = 1).
class GbdtRegressor {
 public:
  GbdtRegressor() = default;

  void train(const Dataset& data, const std::vector<double>& targets,
             const GbdtParams& params = GbdtParams{});

  bool trained() const { return !trees_.empty() || base_ != 0.0; }
  double predict(const float* features) const;
  std::size_t num_trees() const { return trees_.size(); }

  // Batch prediction over a contiguous strided block: predict() per row,
  // filling out[0 .. n).
  void predict_batch(const float* base, std::size_t row_stride,
                     std::size_t n, double* out) const;

  // Reference oracle: base + the per-tree walk, summed in boosting order.
  // Tests only, like GbdtClassifier::reference_scores.
  double reference_predict(const float* features) const;

  // load() throws std::runtime_error on a truncated stream, a negative
  // tree count, a non-finite base or learning rate, or a malformed tree.
  void save(std::ostream& out) const;
  static GbdtRegressor load(std::istream& in);

 private:
  void recompile();

  double base_ = 0.0;
  double learning_rate_ = 0.15;
  std::vector<RegressionTree> trees_;
  // The single-class forest seeded with base_; compiled from construction
  // on, so an untrained regressor predicts base_ (0) through it.
  FlatForest forest_ = FlatForest::compile({}, 1, 0.0);
};

}  // namespace byom::ml
