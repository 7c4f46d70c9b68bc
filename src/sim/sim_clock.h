// SimClock — the virtual time source of the event-driven simulation core.
//
// The simulator, the serving pipeline, and the staleness machinery all share
// one injectable clock instead of reading wall time: arrivals, capacity
// releases, hint-ready deliveries, and model retrains are events on a single
// virtual timeline, so a hint produced by the serving loop can genuinely
// arrive *after* the placement decision that wanted it, and the whole run
// stays bit-reproducible regardless of host speed or thread count.
//
// Event representation: every event is a 40-byte POD carrying a flat
// trampoline (plain function pointer), a context pointer, one payload word
// (released bytes, job id, ...), and a packed (priority, sequence, kind)
// ordering key, kept in a std::vector heap driven by std::push_heap /
// std::pop_heap. Scheduling is one POD push: no std::function, no per-event
// heap allocation, no virtual dispatch.
//
// Determinism contract: events execute in (time, priority, sequence) order.
// `priority` breaks ties at equal timestamps between event kinds (capacity
// releases before retrains before hint deliveries before arrivals — the
// order the synchronous reference simulator implies; priorities must fit in
// [0, 255]), and the monotonically increasing sequence number breaks the
// remaining ties by schedule order. Sequence numbers are unique, so this is
// a strict total order: any correct heap pops the same sequence. Nothing
// about execution depends on wall-clock time or scheduling jitter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/thread_annotations.h"

namespace byom::sim {

// Single-threaded by contract: the clock is owned by whichever replay or
// serving shard drives it, and is never shared across threads — callers
// provide the synchronization (each PlacementService shard owns its own
// clock; the reference simulator runs one clock on one thread).
class BYOM_EXTERNALLY_SYNCHRONIZED SimClock {
 public:
  // Typed-event trampoline: `ctx` is the scheduling subsystem's own object
  // (simulation engine, placement service, ...), `arg` one payload word,
  // `time` the virtual instant the event was scheduled to fire at.
  using Handler = void (*)(void* ctx, std::uint64_t arg, double time);

  // What a typed event *is* — the tag is carried for introspection and
  // debugging; dispatch goes through the stored trampoline, so SimClock
  // never depends on the subsystems that schedule on it.
  enum class EventKind : std::uint8_t {
    kRelease,       // SSD capacity released at a job's eviction/end time
    kRetrain,       // model retrain instant on the staleness schedule
    kHintReady,     // a served category hint becomes visible to consumers
  };

  // Tie-break ranks for events scheduled at the same virtual time. Lower
  // runs first. The ordering mirrors the synchronous simulator: capacity
  // released at t is visible to a decision at t; a retrain at t governs
  // hints consumed at t; a hint ready at exactly t reaches a decision at t.
  enum EventPriority : int {
    kReleasePriority = 0,
    kRetrainPriority = 1,
    kHintReadyPriority = 2,
    kArrivalPriority = 3,
    kDefaultPriority = 4,
  };

  double now() const { return now_; }

  // Moves virtual time forward; moving backwards is a no-op (time is
  // monotonic by construction).
  void advance_to(double time) {
    if (time > now_) now_ = time;
  }

  // Schedules a typed event at virtual `time` (clamped to now() — an event
  // scheduled in the past fires "immediately", at the current time).
  // Zero-allocation in steady state: one POD push into the heap. Returns
  // the event's sequence number. Throws std::invalid_argument on a null
  // handler or a priority outside [0, 255]. Inline (with the heap ops
  // below): the replay loop schedules and pops one event per job, so the
  // whole push/pop cycle must inline into the caller.
  std::uint64_t schedule_typed(double time, int priority, EventKind kind,
                               Handler handler, void* ctx,
                               std::uint64_t arg = 0);

  // Pre-sizes the event heap so a replay of known size never reallocates
  // mid-run.
  void reserve(std::size_t events) { heap_.reserve(events); }

  // Pops and runs the earliest pending event, advancing now() to its time.
  // Returns false when no events are pending.
  bool run_next() {
    if (heap_.empty()) return false;
    dispatch(pop_front());
    return true;
  }

  // Runs every event with time <= `time` (in order), then advances now()
  // to `time`. Returns the number of events executed.
  // hotpath: one call per replayed job; must not allocate.
  std::size_t run_until(double time) {
    std::size_t executed = 0;
    while (!heap_.empty() && heap_[0].time <= time) {
      dispatch(pop_front());
      ++executed;
    }
    advance_to(time);
    return executed;
  }

  // Runs events until none are pending (events may schedule further
  // events). Returns the number executed.
  std::size_t run_all() {
    std::size_t executed = 0;
    while (run_next()) ++executed;
    return executed;
  }

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

 private:
  // Packed ordering key: priority in the top 8 bits, the 48-bit sequence
  // number next, the kind tag in the low 8 bits (below the sequence, so it
  // never influences order — sequences are unique). One integer compare
  // settles every time tie.
  struct Event {
    double time = 0.0;
    std::uint64_t order = 0;
    Handler handler = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
  };
  static constexpr int kPriorityShift = 56;
  static constexpr int kSeqShift = 8;

  // Heap comparator: "a runs after b" on (time, order), so the std heap
  // keeps the earliest event at front(). A functor, not a function
  // pointer, so the comparisons inline into push_heap/pop_heap.
  struct RunsAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };

  // hotpath: heap pop runs once per event; POD moves only.
  Event pop_front() {
    std::pop_heap(heap_.begin(), heap_.end(), RunsAfter{});
    const Event front = heap_.back();
    heap_.pop_back();
    return front;
  }

  void dispatch(const Event& event) {
    advance_to(event.time);
    ++processed_;
    event.handler(event.ctx, event.arg, event.time);
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> heap_;
};

// hotpath: one POD push per scheduled event; steady state must not allocate
// (heap_ capacity is pre-sized via reserve()).
inline std::uint64_t SimClock::schedule_typed(double time, int priority,
                                              EventKind kind, Handler handler,
                                              void* ctx, std::uint64_t arg) {
  if (handler == nullptr) {
    throw std::invalid_argument("SimClock::schedule_typed: null handler");
  }
  if (priority < 0 || priority > 255) {
    // The packed ordering key gives priority 8 bits; anything outside
    // would silently wrap and corrupt the determinism contract.
    throw std::invalid_argument(
        "SimClock::schedule_typed: priority outside [0, 255]");
  }
  const std::uint64_t seq = next_seq_++;
  // Filled in place, not built on the stack and copied in: gcc copies a
  // stack temporary with 16-byte loads spanning its 8-byte field stores,
  // which defeats store-to-load forwarding (~10 ns per event).
  Event& event = heap_.emplace_back();
  event.time = time < now_ ? now_ : time;
  event.order = (static_cast<std::uint64_t>(priority) << kPriorityShift) |
                (seq << kSeqShift) | static_cast<std::uint64_t>(kind);
  event.handler = handler;
  event.ctx = ctx;
  event.arg = arg;
  std::push_heap(heap_.begin(), heap_.end(), RunsAfter{});
  return seq;
}

}  // namespace byom::sim
