#include "core/byom.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
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

CategoryHints precompute_categories(const ModelRegistry& registry,
                                    common::Span<const trace::Job* const> jobs,
                                    int fallback_num_categories,
                                    const features::FeatureMatrix* matrix) {
  CategoryHints hints;
  hints.reserve(jobs.size());

  // Group jobs by responsible backend so each backend sees one batch. The
  // group holds a shared_ptr: a concurrent hot-swap cannot destroy a
  // backend this pass is still predicting with.
  struct Group {
    ModelBackendPtr backend;
    std::vector<const trace::Job*> jobs;
  };
  std::unordered_map<const ModelBackend*, Group> groups;
  const auto fallback = make_hash_provider(fallback_num_categories);
  for (const trace::Job* job : jobs) {
    if (ModelBackendPtr backend = registry.lookup(*job)) {
      Group& group = groups[backend.get()];
      if (!group.backend) group.backend = std::move(backend);
      group.jobs.push_back(job);
    } else {
      hints.emplace(job->job_id, fallback->category(*job).value_or(0));
    }
  }
  for (const auto& [key, group] : groups) {
    (void)key;
    const auto categories = group.backend->predict_batch(
        common::Span<const trace::Job* const>(group.jobs.data(),
                                              group.jobs.size()),
        matrix);
    for (std::size_t b = 0; b < group.jobs.size(); ++b) {
      hints.emplace(group.jobs[b]->job_id, categories[b]);
    }
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
