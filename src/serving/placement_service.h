// PlacementService — the online serving loop of the paper's production
// design: jobs enqueue inference requests, a Batcher groups them, the
// workload's CategoryModel predicts whole batches, and Algorithm 1 consumes
// whatever hint is ready when the placement decision happens, falling back
// gracefully when it isn't (paper section 2.3 robustness, section 6
// dynamics; see also Hafeez et al. on decoupling storage management from
// pipeline execution).
//
//   submit path                 serving loop                decision path
//   -----------                 ------------                -------------
//   enqueue(job) ---> shard router (fnv1a job-key hash)
//                        |-> shard 0: striped queue -> Batcher -> predict
//                        |-> shard 1: striped queue -> Batcher -> predict
//                        `-> ...               (one worker set per shard)
//   provider()->category(job) <---- per-shard hint table (take once) <---+
//
// Sharding (the million-RPS serving path): the service stands up
// `num_shards` fully independent serving lanes — each with its own
// lock-striped InferenceRequestQueue, Batcher, worker threads, hint
// table, and counters — and routes every request to the shard selected by
// fnv1a(job.job_key) % num_shards. The same recurring (pipeline, step) pair
// always lands on the same shard (deterministic routing, warm per-shard
// state); requests for different job keys on different shards share *no*
// locks end to end. `num_shards == 0` wires one shard per hardware core
// (framework::resolve_shard_count). Aggregate counters are summed across
// shards with relaxed atomic reads; ServingStats stays the single external
// currency.
//
// Three execution modes (per shard):
//   * num_threads >= 1: worker threads (per shard) drive the batcher;
//     consumers wait up to `request_deadline` for an in-flight hint before
//     declining (a miss, counted — the consumer's fallback chain takes
//     over).
//   * num_threads == 0: deterministic single-thread mode. No threads, no
//     timing: a lookup that finds no published hint drains the job's shard
//     synchronously, so every enqueued request "meets its deadline" and
//     results are bit-reproducible — the mode simulation cells and tests
//     use. A lookup for a job that was never enqueued (or was dropped, or
//     whose hint was already taken) misses.
//   * num_threads == 0 with a sim::SimClock (virtual-time mode): the same
//     drain-on-lookup batching, but timestamps come from the injected clock
//     (the wall clock is never read) and every request is charged
//     `latency_model->latency_seconds(job)` of virtual delay, so hints race
//     the placement decisions replayed by the event-driven simulator. A
//     consumer waits up to `virtual_request_deadline` virtual seconds for
//     its hint; a hint that cannot make that deadline is a miss (the
//     consumer degrades to its fallback, per Algorithm 1), and its
//     hint-ready event on the clock later counts it `late` and frees it.
//     Hint-ready events are the only events the service schedules. With the
//     zero-latency model every hint is on time and results are bit-identical
//     to plain deterministic mode. Virtual-time mode requires num_shards ==
//     1: simulation cells stay on the single-lane, bit-reproducible path.
//
// Hint table (take once): a hint is one per-job value that Algorithm 1
// reads once, at that job's placement decision. Each shard holds it in one
// table, job id -> {category, scheduled, missed, ready time, virtual
// latency}, from batch execution until its one consumer takes it: a
// wait_for hit erases the entry in every mode, and a late hint (its
// consumer already fell back) is erased by its hint-ready event. The table
// therefore holds only hints computed but not yet consumed — O(window) in
// a streamed replay, not O(trace); held_hints() reads its size. A
// duplicate request for a job whose hint is still held is ignored; once
// the hint has been taken, a new request for that job is a new request
// (computed, counted and held again).
//
// Category values are produced by the same registry-grouped
// ModelBackend::predict_batch pass as the offline path
// (core::predict_categories_into, behind core::precompute_categories) —
// per-job hints are independent of batch composition — so served hints are
// bit-identical to offline-batched hints whenever every request completes
// in time, at any shard count. A deterministic-mode drain runs that pass
// in per-shard buffers reused across drains, so a steady-state
// single-request round trip, at zero or positive hint latency, allocates
// the request's copy of its job and one hint-table node, which the take
// frees again.
//
// Backend resolution is epoch-published (core/model_registry.h): each batch
// loads an immutable snapshot through an atomic slot, so registry hot-swaps
// never take a lock on this read path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/byom.h"
#include "core/category_provider.h"
#include "features/feature_matrix.h"
#include "serving/batcher.h"
#include "serving/inference_queue.h"
#include "serving/latency_model.h"
#include "sim/hint_service.h"
#include "sim/sim_clock.h"

namespace byom::serving {

struct PlacementServiceConfig {
  // Independent serving lanes (queue + batcher + workers + hints each),
  // routed by fnv1a(job_key). 0 = one shard per hardware core. Virtual-time
  // mode requires the resolved count to be 1.
  std::size_t num_shards = 1;
  // Lock stripes inside each shard's request queue (see
  // InferenceRequestQueue): producers on different stripes never contend.
  std::size_t queue_stripes = 1;
  // Request-queue bound *per shard* (split across its stripes).
  std::size_t queue_capacity = 4096;
  std::size_t max_batch = 64;
  // Batcher flush deadline: max hint latency added by batching under light
  // load (threaded mode only).
  std::chrono::milliseconds flush_deadline{2};
  // Consumer wait budget for an in-flight hint before declining (threaded
  // mode only; deterministic mode drains synchronously instead).
  std::chrono::milliseconds request_deadline{5};
  // Worker threads driving each shard's batcher (so the service runs
  // num_shards * num_threads workers in total). 0 selects the deterministic
  // single-thread mode described above.
  std::size_t num_threads = 1;
  // Jobs whose workload has no model in the registry are served the robust
  // hash fallback over this N (mirrors core::precompute_categories).
  int fallback_num_categories = 15;
  // Optional shared pre-extracted feature matrix for the trace being
  // served: batch execution reads its contiguous rows instead of
  // re-extracting each requested job (bit-identical results). Immutable, so
  // worker threads share it without locking.
  features::FeatureMatrixPtr feature_matrix;

  // ---- virtual-time mode (requires num_threads == 0, num_shards <= 1) ----
  // The shared virtual time source. Setting it switches the deterministic
  // mode to virtual time: enqueue timestamps, latencies, and deadlines are
  // all expressed in clock seconds.
  std::shared_ptr<sim::SimClock> clock;
  // Per-request serving delay (queueing + batching + inference). Null means
  // zero latency.
  LatencyModelPtr latency_model;
  // Consumer wait budget in virtual seconds: a hint ready within this much
  // of the lookup is consumed on time; anything slower is a miss and a late
  // delivery. The virtual analogue of `request_deadline`.
  double virtual_request_deadline = 0.0;
};

// Aggregate serving counters (all monotonic), summed across shards with
// relaxed atomic reads.
struct ServingStats {
  std::uint64_t enqueued = 0;   // requests accepted into the queues
  std::uint64_t dropped = 0;    // requests rejected (queue full / shut down)
  // Hints published: computed and visible to their consumer (in
  // virtual-time mode, once ready — at execution, at a mid-wait take, or at
  // the hint-ready event). A duplicate of a held request is not counted.
  std::uint64_t completed = 0;
  std::uint64_t hits = 0;       // provider lookups that took a hint
  std::uint64_t misses = 0;     // provider lookups that declined (deadline
                                // missed, never requested or already
                                // taken) -> fallback
  // Virtual-time mode hint timeliness: a hint is `on_time` when its
  // consumer took it within the virtual deadline, `late` when its
  // hint-ready event fired after its consumer had already fallen back (the
  // event frees it). When every request is consumed exactly once (the
  // simulator's regime), on_time + late + dropped accounts for every
  // submitted request, and once the clock has run every event, completed
  // == on_time + late and no hint is held.
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  // Consumer entries into the request queues' timed wait
  // (InferenceRequestQueue::timed_waits). Only threaded workers wait;
  // deterministic and virtual-time modes must keep it at 0.
  std::uint64_t timed_waits = 0;
  // Latency accounting is mode-tagged — the two modes measure different
  // clocks in different units and must never share a counter:
  //   * threaded / plain deterministic mode: wall-clock enqueue -> publish,
  //     milliseconds (the `wall_*` pair; `virtual_*` stays zero);
  //   * virtual-time mode: the latency model's virtual serving delay,
  //     seconds (the `virtual_*` pair; `wall_*` stays zero).
  double wall_latency_total_ms = 0.0;
  double wall_latency_max_ms = 0.0;
  double virtual_latency_total_s = 0.0;
  double virtual_latency_max_s = 0.0;

  double mean_wall_latency_ms() const {
    return completed > 0
               ? wall_latency_total_ms / static_cast<double>(completed)
               : 0.0;
  }
  double mean_virtual_latency_s() const {
    return completed > 0
               ? virtual_latency_total_s / static_cast<double>(completed)
               : 0.0;
  }
};

// Implements sim::HintService so the event engine can submit requests and
// fold timeliness counters without naming any serving type (the layer
// contract puts serving above sim; see sim/hint_service.h).
class PlacementService : public sim::HintService {
 public:
  // The registry maps each job to its workload's ModelBackend
  // (core/model_registry.h). Hot-swaps are honored mid-run: each batch
  // resolves its backends (via epoch-published snapshots) at execution
  // time.
  explicit PlacementService(
      std::shared_ptr<const core::ModelRegistry> registry,
      const PlacementServiceConfig& config = {});
  ~PlacementService() override;

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // Requests a category hint for `job`, routed to its job-key shard.
  // Non-blocking: false means the request was dropped (shard queue full or
  // service shut down) and the consumer will fall back at decision time.
  bool enqueue(const trace::Job& job) override;
  // Convenience for replay-style consumers that know the upcoming jobs.
  // Returns the number of requests accepted.
  std::size_t enqueue_all(const std::vector<trace::Job>& jobs);

  // Consumer-side take with the service's fallback semantics, routed
  // straight to the job's shard: waits up to `request_deadline` in threaded
  // mode, drains the shard synchronously in deterministic mode. Counts a
  // hit or a miss; a hit erases the hint (take once). This is the serving
  // hot path — O(1) in the shard count.
  std::optional<int> wait_for(const trace::Job& job);

  // Stops accepting requests, wakes every idle worker on every shard, and
  // joins them. The drain order is part of the contract: requests accepted
  // before shutdown are executed by the exiting workers of their shard, so
  // when shutdown() returns in threaded mode every shard queue is empty
  // (asserted) and no worker thread is left behind — all shards drain, not
  // just shard 0. An idle worker blocks on its queue's condition variable
  // (no polling), so shutdown with empty queues returns promptly.
  // Idempotent and thread-safe; also called by the destructor.
  void shutdown();

  // Aggregated across shards (relaxed atomic counter reads + per-shard
  // hint-lock reads); safe to call concurrently with serving.
  ServingStats stats() const;
  // One shard's counters — tests use this to assert routing and balance.
  ServingStats shard_stats(std::size_t shard_index) const;
  // The sim-layer slice of stats(): hint-timeliness counters the event
  // engine folds into SimResult (sim/hint_service.h).
  sim::HintTimeliness hint_timeliness() const override;

  bool deterministic() const { return config_.num_threads == 0; }
  bool virtual_time() const { return config_.clock != nullptr; }
  std::size_t num_shards() const { return shards_.size(); }
  // Deterministic fnv1a job-key routing (same key -> same shard, every run,
  // every process).
  std::size_t shard_of(std::string_view job_key) const;
  std::size_t pending_requests() const;
  // Hints computed but not yet taken (or, late ones, freed by their
  // hint-ready event), summed over shards.
  std::size_t held_hints() const;
  const PlacementServiceConfig& config() const { return config_; }

 private:
  // One hint, from batch execution until its consumer takes it. The
  // virtual-time fields stay zero/false in the other modes.
  struct HeldHint {
    int category = 0;
    // Not published yet: its hint-ready event is still scheduled.
    bool scheduled = false;
    // Consumer already fell back (deadline exceeded): the hint-ready event
    // counts it late and erases it.
    bool missed = false;
    double ready_time = 0.0;
    double virtual_latency = 0.0;
  };

  // Buffers of one batch execution: the batch's job pointers and
  // categories plus the core inference pass's own.
  struct BatchBuffers {
    std::vector<const trace::Job*> jobs;
    std::vector<int> categories;
    core::InferencePassBuffers pass;
  };

  // One independent serving lane. Lives behind a unique_ptr so `this` stays
  // stable for the batcher callback and the worker threads.
  struct Shard {
    Shard(PlacementService* service, const PlacementServiceConfig& config);

    // Counts a virtual-time hint published, with its serving delay.
    void count_published(double virtual_latency)
        BYOM_REQUIRES(hints_mutex);

    InferenceRequestQueue queue;
    Batcher batcher;

    mutable common::Mutex hints_mutex;
    common::CondVar hints_cv;
    std::unordered_map<std::uint64_t, HeldHint> hints
        BYOM_GUARDED_BY(hints_mutex);
    std::uint64_t completed BYOM_GUARDED_BY(hints_mutex) = 0;
    double wall_latency_total_ms BYOM_GUARDED_BY(hints_mutex) = 0.0;
    double wall_latency_max_ms BYOM_GUARDED_BY(hints_mutex) = 0.0;
    double virtual_latency_total_s BYOM_GUARDED_BY(hints_mutex) = 0.0;
    double virtual_latency_max_s BYOM_GUARDED_BY(hints_mutex) = 0.0;

    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> on_time{0};
    std::atomic<std::uint64_t> late{0};

    // Deterministic modes execute batches only inside batcher.drain(),
    // which holds the batcher's drain lock, so these are never shared;
    // threaded workers run batches concurrently and bring their own.
    BatchBuffers drain_buffers;

    // Written by the constructor before any worker runs and joined by
    // shutdown() under shutdown_mutex_; never touched by the workers
    // themselves.
    std::vector<std::thread> workers;
  };

  Shard& shard_for(const trace::Job& job) {
    return *shards_[shard_of(job.job_key)];
  }

  void execute_batch(Shard& shard, const std::vector<InferenceRequest>& batch);
  // Hint-ready event for the hint of `job_id` ready at `time`.
  void deliver_virtual(std::uint64_t job_id, double time);
  // Typed SimClock trampoline (virtual-time mode, shard 0): hint-ready
  // delivery, dispatched with zero allocation.
  static void on_hint_ready_event(void* ctx, std::uint64_t job_id,
                                  double time);
  // Deterministic modes' take: drains the shard first unless the hint for
  // `job_id` is already published.
  std::optional<int> take_drained(Shard& shard, std::uint64_t job_id);
  // Threaded mode's take: waits up to request_deadline for the hint.
  std::optional<int> take_threaded(Shard& shard, std::uint64_t job_id);
  void worker_loop(Shard& shard);

  const PlacementServiceConfig config_;  // num_shards resolved (>= 1)
  std::shared_ptr<const core::ModelRegistry> registry_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Serializes concurrent shutdown() calls (guards the join protocol, not
  // data: worker joins must not race each other).
  // lint:allow(guarded-mutex) protocol-only, no guarded members
  common::Mutex shutdown_mutex_;
};

// Async CategoryProvider over a service: category() = wait_for(job), routed
// to the job's shard. Declines on a miss, so compose it with a sync
// fallback via core::make_fallback_chain. Holds a shared_ptr, keeping the
// service alive for as long as any consumer does.
core::CategoryProviderPtr make_served_provider(
    std::shared_ptr<PlacementService> service);

}  // namespace byom::serving
