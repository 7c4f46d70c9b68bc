#include "core/byom.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace byom::core {

namespace {

class RegistryProvider final : public CategoryProvider {
 public:
  explicit RegistryProvider(std::shared_ptr<const ModelRegistry> registry)
      : registry_(std::move(registry)) {
    if (!registry_) {
      throw std::invalid_argument("make_registry_provider: null registry");
    }
  }

  std::string name() const override { return "registry"; }

  std::optional<int> category(const trace::Job& job) override {
    // The resolved handle keeps the backend alive through the prediction
    // even if a retrain hot-swaps the registration concurrently.
    if (const ModelBackendPtr backend = registry_->lookup(job)) {
      return backend->predict_category(job);
    }
    return std::nullopt;  // no model for this workload: consumer falls back
  }

 private:
  std::shared_ptr<const ModelRegistry> registry_;
};

}  // namespace

CategoryProviderPtr make_registry_provider(
    std::shared_ptr<const ModelRegistry> registry) {
  return std::make_shared<RegistryProvider>(std::move(registry));
}

void predict_categories_into(const ModelRegistry& registry,
                             common::Span<const trace::Job* const> jobs,
                             int fallback_num_categories,
                             const features::FeatureMatrix* matrix, int* out,
                             InferencePassBuffers& buffers) {
  if (fallback_num_categories < 2) {
    throw std::invalid_argument(
        "predict_categories_into: fallback N >= 2 required");
  }
  // Resolve every job's backend once. The handles are shared_ptrs: a
  // concurrent hot-swap cannot destroy a backend this pass still predicts
  // with.
  auto& backends = buffers.backends;
  backends.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    backends.push_back(registry.lookup(*jobs[i]));
    if (!backends.back()) {
      out[i] = hash_category(*jobs[i], fallback_num_categories);
    }
  }
  // One predict_batch per distinct backend, in first-seen order. A
  // registry holds a handful of backends, so the scan for each group's
  // members stays linear in practice.
  for (std::size_t first = 0; first < jobs.size(); ++first) {
    if (!backends[first]) continue;
    const ModelBackendPtr backend = std::move(backends[first]);
    buffers.group_jobs.clear();
    buffers.group_rows.clear();
    buffers.group_jobs.push_back(jobs[first]);
    buffers.group_rows.push_back(first);
    for (std::size_t i = first + 1; i < jobs.size(); ++i) {
      if (backends[i] == backend) {
        backends[i].reset();
        buffers.group_jobs.push_back(jobs[i]);
        buffers.group_rows.push_back(i);
      }
    }
    buffers.group_categories.resize(buffers.group_jobs.size());
    backend->predict_batch(
        common::Span<const trace::Job* const>(buffers.group_jobs.data(),
                                              buffers.group_jobs.size()),
        matrix, buffers.group_categories.data(), buffers.features);
    for (std::size_t b = 0; b < buffers.group_rows.size(); ++b) {
      out[buffers.group_rows[b]] = buffers.group_categories[b];
    }
  }
  backends.clear();
}

CategoryHints precompute_categories(const ModelRegistry& registry,
                                    common::Span<const trace::Job* const> jobs,
                                    int fallback_num_categories,
                                    const features::FeatureMatrix* matrix) {
  InferencePassBuffers buffers;
  std::vector<int> categories(jobs.size());
  predict_categories_into(registry, jobs, fallback_num_categories, matrix,
                          categories.data(), buffers);
  CategoryHints hints;
  hints.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    hints.emplace(jobs[i]->job_id, categories[i]);
  }
  return hints;
}

CategoryHints precompute_categories(const ModelRegistry& registry,
                                    const std::vector<trace::Job>& jobs,
                                    int fallback_num_categories,
                                    const features::FeatureMatrix* matrix) {
  std::vector<const trace::Job*> pointers;
  pointers.reserve(jobs.size());
  for (const auto& job : jobs) pointers.push_back(&job);
  return precompute_categories(
      registry,
      common::Span<const trace::Job* const>(pointers.data(), pointers.size()),
      fallback_num_categories, matrix);
}

CategoryModel train_byom_model(const std::vector<trace::Job>& history,
                               const CategoryModelConfig& config) {
  return CategoryModel::train(history, config);
}

}  // namespace byom::core
