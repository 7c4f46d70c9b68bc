// Bounded lock-striped MPMC queue of category-inference requests — the
// entry point of the online serving loop (request queue -> batcher -> model)
// that keeps model inference off the storage layer's critical path, as the
// paper's production design requires.
//
// One way in and one way out: any number of producers (job submission
// paths) try_push() requests and degrade to the fallback provider when a
// stripe is full — the queue is bounded, so a stalled model back-pressures
// producers instead of growing without limit, and no producer ever blocks;
// any number of consumers (Batcher workers, Batcher::drain) pop_batch()
// them.
//
// Striping (the million-RPS serving path): the queue is built from
// `num_stripes` independent FIFO buffers, each behind its own mutex, with
// requests mapped to a stripe by a mix of their job id. Producers landing on
// different stripes never contend on a lock; consumers sweep the stripes
// from a rotating cursor so they spread across them too. The only shared
// lock is a "gate" mutex that an *idle* consumer takes to block on the
// not-empty condition — producers touch it only for an empty
// lock/unlock pair before notifying, so under load the gate is never
// contended. With num_stripes == 1 (the default) the queue degenerates to
// the classic single-mutex bounded queue and keeps its strict global FIFO.
//
// Ordering contract: FIFO *per stripe*. Requests that map to the same
// stripe are popped in push order; requests on different stripes have no
// relative order. Capacity is split evenly across stripes
// (ceil(capacity / num_stripes) each), so the bound is also per stripe —
// a hot stripe back-pressures without consuming the whole budget.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "trace/job.h"

namespace byom::serving {

struct InferenceRequest {
  // The job is copied into the request: a request may outlive the
  // submission context that created it.
  trace::Job job;
  // lint:allow(wall-clock) threaded-mode latency accounting; never read in
  // virtual-time mode
  std::chrono::steady_clock::time_point enqueued_at{};
  // Virtual submission time (sim::SimClock seconds); only meaningful when
  // the owning PlacementService runs in virtual-time mode.
  double virtual_enqueued_at = 0.0;
};

class InferenceRequestQueue {
 public:
  // `capacity` is the total bound, split evenly across `num_stripes`
  // independently locked stripes (>= 1 slot each).
  explicit InferenceRequestQueue(std::size_t capacity,
                                 std::size_t num_stripes = 1);

  // Non-blocking push; false when the request's stripe is full or the queue
  // is shut down.
  bool try_push(InferenceRequest request);

  // Appends up to `max_batch` requests to `out`, waiting up to `wait` for
  // the first one. Returns the number appended (0 on timeout/shutdown).
  // `wait <= 0` is a pure non-blocking sweep: it never takes the idle gate
  // or touches the condition variable.
  std::size_t pop_batch(std::vector<InferenceRequest>& out,
                        std::size_t max_batch, std::chrono::milliseconds wait);

  // Blocking variant: waits — without a timeout, so an idle consumer burns
  // no CPU — until a request arrives or the queue is shut down. Returns 0
  // only when the queue is shut down and fully drained (the worker-loop
  // exit condition).
  std::size_t pop_batch(std::vector<InferenceRequest>& out,
                        std::size_t max_batch);

  // Wakes all idle consumers; subsequent pushes fail, pops drain what
  // remains.
  void shutdown();
  bool shut_down() const;

  std::size_t size() const;
  // Times a consumer entered the timed wait (wait_until) path of
  // pop_batch(out, n, wait). Read-only telemetry; zero-wait pops never
  // count, so a virtual-time service must keep it at 0.
  std::uint64_t timed_waits() const {
    // atomic: relaxed — telemetry counter; publishes no data
    return timed_waits_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return stripe_capacity_ * stripes_.size(); }
  std::size_t num_stripes() const { return stripes_.size(); }
  // The stripe a request with this job id lands on — exposed so tests can
  // assert the FIFO-per-stripe and per-stripe-bound contracts.
  std::size_t stripe_of(std::uint64_t job_id) const;

 private:
  struct Stripe {
    mutable common::Mutex mutex;
    // FIFO of queued requests. A popped request's node is spliced onto
    // `spare` instead of being freed, and the next push reuses it, so a
    // stripe stops allocating once it has held its largest backlog.
    std::list<InferenceRequest> items BYOM_GUARDED_BY(mutex);
    std::list<InferenceRequest> spare BYOM_GUARDED_BY(mutex);
  };

  // Enqueues `request` on `stripe`, reusing a spare node when one exists.
  static void append(Stripe& stripe, InferenceRequest&& request)
      BYOM_REQUIRES(stripe.mutex);
  // Pops up to `max_batch` requests into `out`, sweeping every stripe once
  // from the rotating cursor. Lock scope is one stripe at a time.
  std::size_t sweep(std::vector<InferenceRequest>& out, std::size_t max_batch);
  // Gate-synchronized wakeup of one idle consumer (see header comment).
  void notify_not_empty();
  // The idle consumer's wake predicate (atomics only, no lock required).
  bool wake_ready() const;

  const std::size_t stripe_capacity_;
  // unique_ptr per stripe: Stripe holds a mutex and must not move when the
  // vector is built.
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // Mutated only alongside its stripe's items (under that stripe's lock);
  // read lock-free by idle consumers' wake predicates.
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::uint64_t> timed_waits_{0};

  // Consumers' idle block only: producers take it for an empty critical
  // section before notifying so a consumer between its predicate check and
  // wait() cannot miss the wakeup. Guards the wait protocol, not data —
  // every field a waiter reads is atomic.
  // lint:allow(guarded-mutex) protocol-only gate, no guarded members
  mutable common::Mutex gate_mutex_;
  common::CondVar not_empty_;
};

}  // namespace byom::serving
