#include "serving/placement_service.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "framework/thread_pool.h"

namespace byom::serving {

namespace {

// Validates and resolves the config once, before the const member is
// initialized: num_shards == 0 becomes one shard per hardware core.
PlacementServiceConfig resolve_config(PlacementServiceConfig config) {
  config.num_shards = framework::resolve_shard_count(config.num_shards);
  if (config.fallback_num_categories < 2) {
    throw std::invalid_argument("PlacementService: fallback N >= 2 required");
  }
  if (config.clock) {
    if (config.num_threads != 0) {
      throw std::invalid_argument(
          "PlacementService: virtual-time mode requires num_threads == 0");
    }
    if (config.num_shards != 1) {
      throw std::invalid_argument(
          "PlacementService: virtual-time mode requires num_shards == 1 "
          "(simulation cells stay on the single-lane path)");
    }
  }
  return config;
}

}  // namespace

PlacementService::Shard::Shard(PlacementService* service,
                               const PlacementServiceConfig& config)
    : queue(config.queue_capacity, config.queue_stripes),
      batcher(&queue, BatcherConfig{config.max_batch, config.flush_deadline},
              [service, this](const std::vector<InferenceRequest>& batch) {
                service->execute_batch(*this, batch);
              }) {}

PlacementService::PlacementService(
    std::shared_ptr<const core::ModelRegistry> registry,
    const PlacementServiceConfig& config)
    : config_(resolve_config(config)), registry_(std::move(registry)) {
  if (!registry_) {
    throw std::invalid_argument("PlacementService: null registry");
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, config_));
  }
  for (auto& shard : shards_) {
    shard->workers.reserve(config_.num_threads);
    for (std::size_t i = 0; i < config_.num_threads; ++i) {
      shard->workers.emplace_back([this, s = shard.get()] { worker_loop(*s); });
    }
  }
}

PlacementService::~PlacementService() { shutdown(); }

void PlacementService::worker_loop(Shard& shard) {
  while (shard.batcher.run_once()) {
  }
}

std::size_t PlacementService::shard_of(std::string_view job_key) const {
  return shards_.size() == 1
             ? 0
             : static_cast<std::size_t>(common::fnv1a(job_key) %
                                        shards_.size());
}

bool PlacementService::enqueue(const trace::Job& job) {
  Shard& shard = shard_for(job);
  InferenceRequest request;
  request.job = job;
  if (virtual_time()) {
    request.virtual_enqueued_at = config_.clock->now();
  } else {
    // lint:allow(wall-clock) threaded/deterministic-mode latency accounting;
    // virtual-time mode stamps virtual_enqueued_at and never reads it
    request.enqueued_at = std::chrono::steady_clock::now();
  }
  if (!shard.queue.try_push(std::move(request))) {
    // atomic: relaxed — stats counter; publishes no data, only summed
    // by stats()
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // atomic: relaxed — stats counter; publishes no data, only summed
  // by stats()
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t PlacementService::enqueue_all(
    const std::vector<trace::Job>& jobs) {
  std::size_t accepted = 0;
  for (const auto& job : jobs) {
    if (enqueue(job)) ++accepted;
  }
  return accepted;
}

std::optional<int> PlacementService::wait_for(const trace::Job& job) {
  Shard& shard = shard_for(job);
  const auto hint = deterministic() ? take_drained(shard, job.job_id)
                                    : take_threaded(shard, job.job_id);
  // atomic: relaxed — stats counters; publish no data, only summed by
  // stats()
  (hint ? shard.hits : shard.misses).fetch_add(1, std::memory_order_relaxed);
  if (hint && virtual_time()) {
    // atomic: relaxed — stats counter; only summed by stats()
    shard.on_time.fetch_add(1, std::memory_order_relaxed);
  }
  return hint;
}

std::optional<int> PlacementService::take_drained(Shard& shard,
                                                  std::uint64_t job_id) {
  bool published = false;
  {
    common::MutexLock lock(shard.hints_mutex);
    const auto it = shard.hints.find(job_id);
    published = it != shard.hints.end() && !it->second.scheduled;
  }
  // Unless the hint is already published, compute everything queued on
  // this shard, on this thread: every enqueued request meets its deadline,
  // with no timing dependence.
  if (!published) shard.batcher.drain();
  const double deadline =
      virtual_time() ? config_.clock->now() + config_.virtual_request_deadline
                     : 0.0;
  common::MutexLock lock(shard.hints_mutex);
  const auto it = shard.hints.find(job_id);
  if (it == shard.hints.end()) return std::nullopt;
  HeldHint& hint = it->second;
  if (hint.scheduled) {
    if (hint.ready_time > deadline) {
      // The hint cannot make the deadline: Algorithm 1 falls back now; the
      // hint-ready event counts it late and frees it.
      hint.missed = true;
      return std::nullopt;
    }
    // The consumer's wait budget covers the remaining latency: publish and
    // take the hint "mid-wait". Its hint-ready event finds nothing.
    shard.count_published(hint.virtual_latency);
  }
  const int category = hint.category;
  shard.hints.erase(it);
  return category;
}

std::optional<int> PlacementService::take_threaded(Shard& shard,
                                                   std::uint64_t job_id) {
  // lint:allow(wall-clock) threaded-mode consumer deadline; virtual-time
  // lookups go through take_drained instead
  const auto deadline =
      std::chrono::steady_clock::now() + config_.request_deadline;
  common::MutexLock lock(shard.hints_mutex);
  // Explicit predicate loop (not the lambda-predicate wait overload): the
  // thread-safety analysis checks each guarded access in this scope, where
  // it can see the MutexLock.
  auto it = shard.hints.find(job_id);
  while (it == shard.hints.end()) {
    if (shard.hints_cv.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      it = shard.hints.find(job_id);  // a publish may race the timeout
      break;
    }
    it = shard.hints.find(job_id);
  }
  if (it == shard.hints.end()) return std::nullopt;
  const int category = it->second.category;
  shard.hints.erase(it);
  return category;
}

void PlacementService::Shard::count_published(double virtual_latency) {
  ++completed;
  virtual_latency_total_s += virtual_latency;
  virtual_latency_max_s = std::max(virtual_latency_max_s, virtual_latency);
}

void PlacementService::on_hint_ready_event(void* ctx, std::uint64_t job_id,
                                           double time) {
  static_cast<PlacementService*>(ctx)->deliver_virtual(job_id, time);
}

void PlacementService::deliver_virtual(std::uint64_t job_id, double time) {
  // Hint-ready event: publish the held hint. If its consumer already took
  // it mid-wait there is nothing to do — and an entry that is published,
  // or that a later request scheduled for another time, is not this
  // event's.
  Shard& shard = *shards_.front();
  common::MutexLock lock(shard.hints_mutex);
  const auto it = shard.hints.find(job_id);
  if (it == shard.hints.end() || !it->second.scheduled ||
      it->second.ready_time != time) {
    return;
  }
  HeldHint& hint = it->second;
  hint.scheduled = false;
  shard.count_published(hint.virtual_latency);
  if (hint.missed) {
    // Its consumer already fell back: nobody will take it.
    shard.hints.erase(it);
    // atomic: relaxed — late-hint stats counter; only summed by stats()
    shard.late.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlacementService::execute_batch(
    Shard& shard, const std::vector<InferenceRequest>& batch) {
  BatchBuffers local;
  BatchBuffers& buffers = deterministic() ? shard.drain_buffers : local;
  // One registry-grouped predict_batch pass — the exact code path offline
  // precomputation uses, which is what makes served hints bit-identical to
  // offline-batched hints (per-job results are independent of batch
  // composition, so shard/stripe interleaving cannot change them). The
  // jobs stay inside their requests; the pass reads them by pointer and
  // writes request b's category to categories[b].
  buffers.jobs.clear();
  for (const auto& request : batch) buffers.jobs.push_back(&request.job);
  buffers.categories.resize(batch.size());
  core::predict_categories_into(
      *registry_,
      common::Span<const trace::Job* const>(buffers.jobs.data(),
                                            buffers.jobs.size()),
      config_.fallback_num_categories, config_.feature_matrix.get(),
      buffers.categories.data(), buffers.pass);
  const std::vector<int>& categories = buffers.categories;

  if (virtual_time()) {
    const double now = config_.clock->now();
    common::MutexLock lock(shard.hints_mutex);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const InferenceRequest& request = batch[b];
      const std::uint64_t job_id = request.job.job_id;
      const double latency =
          config_.latency_model
              ? config_.latency_model->latency_seconds(request.job)
              : 0.0;
      const double ready = request.virtual_enqueued_at + latency;
      const bool scheduled = ready > now;
      if (!shard.hints
               .emplace(job_id, HeldHint{categories[b], scheduled,
                                         /*missed=*/false, ready, latency})
               .second) {
        continue;  // duplicate request for a held hint
      }
      if (!scheduled) {
        shard.count_published(latency);
        continue;
      }
      config_.clock->schedule_typed(ready, sim::SimClock::kHintReadyPriority,
                                    sim::SimClock::EventKind::kHintReady,
                                    &PlacementService::on_hint_ready_event,
                                    this, job_id);
    }
    return;
  }

  // lint:allow(wall-clock) threaded-mode publish timestamp; the virtual
  // path above uses the injected clock
  const auto now = std::chrono::steady_clock::now();
  {
    common::MutexLock lock(shard.hints_mutex);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const InferenceRequest& request = batch[b];
      // A duplicate request for a held hint completes without recounting
      // stats.
      if (!shard.hints.emplace(request.job.job_id, HeldHint{categories[b]})
               .second) {
        continue;
      }
      ++shard.completed;
      const double latency_ms =
          std::chrono::duration<double, std::milli>(now - request.enqueued_at)
              .count();
      shard.wall_latency_total_ms += latency_ms;
      shard.wall_latency_max_ms =
          std::max(shard.wall_latency_max_ms, latency_ms);
    }
  }
  shard.hints_cv.notify_all();
}

void PlacementService::shutdown() {
  common::MutexLock lock(shutdown_mutex_);
  // Drain order, for EVERY shard: (1) all queues stop accepting and wake
  // every blocked worker; (2) each shard's workers flush what their queue
  // already accepted and exit their loop; (3) the joins below observe those
  // exits. Only then may the service report itself shut down — an accepted
  // request is never abandoned by a worker mid-drain, on any shard.
  for (auto& shard : shards_) shard->queue.shutdown();
  for (auto& shard : shards_) {
    for (auto& worker : shard->workers) {
      if (worker.joinable()) worker.join();
    }
    // With workers the shard queue must be fully drained once they exited
    // (run_once returns false only on shut-down-and-drained). Deterministic
    // mode has no workers; its queues drain at lookup time.
    assert(shard->workers.empty() || shard->queue.size() == 0);
  }
}

ServingStats PlacementService::shard_stats(std::size_t shard_index) const {
  const Shard& shard = *shards_.at(shard_index);
  ServingStats stats;
  // Read the hint-table counters before `enqueued`: a request completes
  // only after its push, so a snapshot taken under load can then show
  // completed > enqueued only for a request whose producer has pushed it
  // but not yet counted it. Reading `enqueued` first let a descheduled
  // reader see dozens more completions than enqueues.
  {
    common::MutexLock lock(shard.hints_mutex);
    stats.completed = shard.completed;
    stats.wall_latency_total_ms = shard.wall_latency_total_ms;
    stats.wall_latency_max_ms = shard.wall_latency_max_ms;
    stats.virtual_latency_total_s = shard.virtual_latency_total_s;
    stats.virtual_latency_max_s = shard.virtual_latency_max_s;
  }
  // atomic: relaxed — stats counter reads; each counter is independently
  // monotonic and no cross-counter ordering is implied (exact totals need
  // the workers quiesced, which callers arrange via drain/shutdown)
  stats.enqueued = shard.enqueued.load(std::memory_order_relaxed);
  stats.dropped = shard.dropped.load(std::memory_order_relaxed);
  stats.hits = shard.hits.load(std::memory_order_relaxed);
  stats.misses = shard.misses.load(std::memory_order_relaxed);
  stats.on_time = shard.on_time.load(std::memory_order_relaxed);
  stats.late = shard.late.load(std::memory_order_relaxed);
  stats.batches = shard.batcher.batches();
  stats.size_flushes = shard.batcher.size_flushes();
  stats.deadline_flushes = shard.batcher.deadline_flushes();
  stats.timed_waits = shard.queue.timed_waits();
  return stats;
}

ServingStats PlacementService::stats() const {
  ServingStats total;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ServingStats s = shard_stats(i);
    total.enqueued += s.enqueued;
    total.dropped += s.dropped;
    total.completed += s.completed;
    total.hits += s.hits;
    total.misses += s.misses;
    total.on_time += s.on_time;
    total.late += s.late;
    total.batches += s.batches;
    total.size_flushes += s.size_flushes;
    total.deadline_flushes += s.deadline_flushes;
    total.timed_waits += s.timed_waits;
    total.wall_latency_total_ms += s.wall_latency_total_ms;
    total.wall_latency_max_ms =
        std::max(total.wall_latency_max_ms, s.wall_latency_max_ms);
    total.virtual_latency_total_s += s.virtual_latency_total_s;
    total.virtual_latency_max_s =
        std::max(total.virtual_latency_max_s, s.virtual_latency_max_s);
  }
  return total;
}

sim::HintTimeliness PlacementService::hint_timeliness() const {
  const ServingStats total = stats();
  sim::HintTimeliness timeliness;
  timeliness.on_time = total.on_time;
  timeliness.late = total.late;
  timeliness.dropped = total.dropped;
  return timeliness;
}

std::size_t PlacementService::pending_requests() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.size();
  return total;
}

std::size_t PlacementService::held_hints() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->hints_mutex);
    total += shard->hints.size();
  }
  return total;
}

namespace {

class ServedCategoryProvider final : public core::CategoryProvider {
 public:
  explicit ServedCategoryProvider(std::shared_ptr<PlacementService> service)
      : service_(std::move(service)) {
    if (!service_) {
      throw std::invalid_argument("make_served_provider: null service");
    }
  }

  std::string name() const override { return "served"; }

  std::optional<int> category(const trace::Job& job) override {
    return service_->wait_for(job);
  }

 private:
  std::shared_ptr<PlacementService> service_;
};

}  // namespace

core::CategoryProviderPtr make_served_provider(
    std::shared_ptr<PlacementService> service) {
  return std::make_shared<ServedCategoryProvider>(std::move(service));
}

}  // namespace byom::serving
