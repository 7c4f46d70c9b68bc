// End-to-end BYOM API.
//
// The cross-layer contract (paper Figure 3): each *workload* trains its own
// category model at the application layer; at run time every job carries a
// category hint produced by its workload's model; the storage layer runs
// the adaptive category selection algorithm over those hints.
//
// The registry (core/model_registry.h: ShardedModelRegistry, holding
// pluggable ModelBackend instances — GBDT, logistic regression, frequency
// table, core/model_backend.h) keeps one backend per workload (keyed by
// pipeline name) plus an optional cluster-default backend. The registry
// provider built here declines for workloads without any model, so a
// missing/broken model degrades one workload instead of the whole cluster
// (paper section 2.3: "a model failure only affects one workload").
//
// The storage-layer composition — wiring a registry provider into the
// Algorithm-1 adaptive policy — lives one layer up in
// policy/byom_policy.h (make_byom_policy, ByomPolicyOptions): by the layer
// contract (tools/layers.json) core publishes models and providers and
// never names policy types.
#pragma once

#include <memory>
#include <vector>

#include "common/span.h"
#include "core/category_model.h"
#include "core/category_provider.h"
#include "core/model_registry.h"
#include "features/feature_matrix.h"

namespace byom::core {

// Synchronous per-job registry inference as a provider; declines for jobs
// whose workload has no model (compose with a fallback, or let the policy's
// hash fallback take over). The provider resolves the backend per call, so
// a hot-swapped registration takes effect on the very next decision.
CategoryProviderPtr make_registry_provider(
    std::shared_ptr<const ModelRegistry> registry);

// Buffers of one registry-grouped inference pass. A caller that runs many
// passes (a serving shard's drain) keeps one, so a steady-state pass
// allocates nothing once they have grown to its batch size; a fresh one
// per pass is always correct.
struct InferencePassBuffers {
  // Per job: the responsible backend, cleared once its group is predicted.
  std::vector<ModelBackendPtr> backends;
  // One backend group: its jobs, their batch positions, their categories.
  std::vector<const trace::Job*> group_jobs;
  std::vector<std::size_t> group_rows;
  std::vector<int> group_categories;
  // Feature scratch handed to ModelBackend::predict_batch.
  std::vector<float> features;
};

// The registry-grouped inference pass: writes jobs[i]'s category to
// out[i]. Jobs are grouped by their responsible backend and each group
// runs one ModelBackend::predict_batch (the GBDT backend scores through
// the compiled flat-forest kernel); jobs with no backend get the hash
// fallback (hash_category over `fallback_num_categories`, which must be
// >= 2). Categories are identical to per-job registry lookup and never
// depend on batch composition. This is the one implementation behind
// precompute_categories and behind serving::PlacementService's batch
// execution, which is what makes served hints bit-identical to
// offline-batched ones. When `matrix` (the trace's shared
// features::FeatureMatrix) is non-null, feature-driven backends read its
// pre-extracted rows instead of re-tokenizing each job — bit-identical
// either way.
void predict_categories_into(const ModelRegistry& registry,
                             common::Span<const trace::Job* const> jobs,
                             int fallback_num_categories,
                             const features::FeatureMatrix* matrix, int* out,
                             InferencePassBuffers& buffers);

// The same pass as a job-id -> category table (offline hint
// precomputation). The job-pointer overload lets callers that hold jobs
// elsewhere pass pointers instead of copying; the vector overload adapts
// to it.
CategoryHints precompute_categories(
    const ModelRegistry& registry, common::Span<const trace::Job* const> jobs,
    int fallback_num_categories,
    const features::FeatureMatrix* matrix = nullptr);
CategoryHints precompute_categories(
    const ModelRegistry& registry, const std::vector<trace::Job>& jobs,
    int fallback_num_categories,
    const features::FeatureMatrix* matrix = nullptr);

// One-call offline training for a workload/cluster history.
CategoryModel train_byom_model(const std::vector<trace::Job>& history,
                               const CategoryModelConfig& config = {});

}  // namespace byom::core
