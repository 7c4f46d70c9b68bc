// Span tracing for the end-to-end benchmark: decorators around the public
// seams the simulator calls into (JobStream, PlacementPolicy,
// sim::HintService) plus scoped spans the benchmark opens around factory
// calls. Each span records wall time (steady_clock) and thread CPU time.
//
// Attribution of one traced replay: every span's duration goes to its
// layer; the wall time between two consecutive spans is engine work (the
// simulator's event loop, clock events, cost accounting) and goes to
// `sim`; time before the first span and after the last one is left
// unattributed and reported as such. The clock reads themselves are
// calibrated once and charged to a separate `tracing` share, so
// wall = layers + sim + tracing + unattributed.
//
// The decorators only forward calls and read clocks, so a traced replay's
// SimResult must equal the untraced one bit for bit — the benchmark checks
// that on every cell.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "policy/policy.h"
#include "sim/hint_service.h"
#include "trace/job_stream.h"

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double thread_cpu_now() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }
inline double process_cpu_now() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }

enum class Layer {
  kTraceNext,       // JobStream::next
  kTraceOpen,       // constructing a generated stream
  kPolicyDecide,    // PlacementPolicy::decide
  kPolicyOnPlaced,  // PlacementPolicy::on_placed
  kPolicyTtl,       // PlacementPolicy::eviction_ttl
  kServingEnqueue,  // sim::HintService::enqueue
  kHarnessBuild,    // cell construction (non-oracle methods)
  kOracleBuild,     // cell construction of the clairvoyant oracles
  kCount,
};

struct SpanStats {
  std::uint64_t calls = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Tracer {
 public:
  // Measures the clocks' own cost per span (see corrected accessors).
  Tracer() { calibrate(); }

  // Opens a replay window: the gap up to the first span is unattributed.
  void begin_replay() {
    replay_start_ = wall_now();
    last_exit_ = replay_start_;
    in_head_ = true;
  }
  // Closes it: the gap after the last span is unattributed.
  void end_replay() {
    const double now = wall_now();
    unattributed_s_ += now - last_exit_;
    replay_wall_s_ += now - replay_start_;
  }

  // A layer's span totals with the clock reads' own cost taken out: what
  // the wrapped calls took. That cost is charged to tracing_s() instead.
  SpanStats stats(Layer layer) const {
    SpanStats s = raw_[static_cast<std::size_t>(layer)];
    const double n = static_cast<double>(s.calls);
    s.wall_s = std::max(0.0, s.wall_s - n * inside_wall_s_);
    s.cpu_s = std::max(0.0, s.cpu_s - n * inside_cpu_s_);
    return s;
  }
  // Engine time between spans, less the part of each span's clock reads
  // that falls outside it.
  double sim_self_s() const {
    return std::max(0.0, sim_self_s_ - static_cast<double>(spans()) *
                                           (per_span_s_ - inside_wall_s_));
  }
  // Wall time spent reading clocks for the spans.
  double tracing_s() const {
    return static_cast<double>(spans()) * per_span_s_;
  }
  double unattributed_s() const { return unattributed_s_; }
  double replay_wall_s() const { return replay_wall_s_; }

  // Scoped span: charges its wall and thread-CPU time to one layer.
  class Span {
   public:
    Span(Tracer& tracer, Layer layer) : tracer_(tracer), layer_(layer) {
      wall0_ = wall_now();
      tracer_.charge_gap(wall0_);
      cpu0_ = thread_cpu_now();
    }
    ~Span() {
      const double cpu1 = thread_cpu_now();
      const double wall1 = wall_now();
      SpanStats& s = tracer_.raw_[static_cast<std::size_t>(layer_)];
      ++s.calls;
      s.wall_s += wall1 - wall0_;
      s.cpu_s += cpu1 - cpu0_;
      tracer_.last_exit_ = wall1;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    Layer layer_;
    double wall0_ = 0.0;
    double cpu0_ = 0.0;
  };

 private:
  void charge_gap(double now) {
    (in_head_ ? unattributed_s_ : sim_self_s_) += now - last_exit_;
    in_head_ = false;
  }

  std::uint64_t spans() const {
    std::uint64_t n = 0;
    for (const SpanStats& s : raw_) n += s.calls;
    return n;
  }

  // Times batches of empty spans; keeps the median batch's per-span
  // costs so one preempted batch does not skew the correction.
  void calibrate() {
    constexpr int kBatches = 7;
    constexpr int kSpans = 10000;
    struct Batch {
      double per_span, inside_wall, inside_cpu;
    };
    std::array<Batch, kBatches> batches{};
    for (Batch& b : batches) {
      raw_ = {};
      begin_replay();
      for (int i = 0; i < kSpans; ++i) {
        const Span span(*this, Layer::kTraceNext);
      }
      end_replay();
      const SpanStats& s = raw_[static_cast<std::size_t>(Layer::kTraceNext)];
      b = {replay_wall_s_ / kSpans, s.wall_s / kSpans, s.cpu_s / kSpans};
      replay_wall_s_ = 0.0;
    }
    std::sort(batches.begin(), batches.end(),
              [](const Batch& a, const Batch& b) {
                return a.per_span < b.per_span;
              });
    per_span_s_ = batches[kBatches / 2].per_span;
    inside_wall_s_ = batches[kBatches / 2].inside_wall;
    inside_cpu_s_ = batches[kBatches / 2].inside_cpu;
    raw_ = {};
    sim_self_s_ = 0.0;
    unattributed_s_ = 0.0;
  }

  std::array<SpanStats, static_cast<std::size_t>(Layer::kCount)> raw_{};
  double replay_start_ = 0.0;
  double last_exit_ = 0.0;
  bool in_head_ = true;
  double sim_self_s_ = 0.0;
  double unattributed_s_ = 0.0;
  double replay_wall_s_ = 0.0;
  // Calibrated clock-read cost: whole span, and the share inside it.
  double per_span_s_ = 0.0;
  double inside_wall_s_ = 0.0;
  double inside_cpu_s_ = 0.0;
};

class TimedStream final : public byom::trace::JobStream {
 public:
  TimedStream(byom::trace::JobStream& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const byom::trace::Job* next() override {
    const Tracer::Span span(tracer_, Layer::kTraceNext);
    return inner_.next();
  }
  std::size_t size_hint() const override { return inner_.size_hint(); }
  std::uint32_t cluster_id() const override { return inner_.cluster_id(); }

 private:
  byom::trace::JobStream& inner_;
  Tracer& tracer_;
};

class TimedPolicy final : public byom::policy::PlacementPolicy {
 public:
  TimedPolicy(byom::policy::PlacementPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  byom::policy::Device decide(const byom::trace::Job& job,
                              const byom::policy::StorageView& view) override {
    const Tracer::Span span(tracer_, Layer::kPolicyDecide);
    return inner_.decide(job, view);
  }
  void on_placed(const byom::trace::Job& job,
                 const byom::policy::PlacementOutcome& outcome) override {
    const Tracer::Span span(tracer_, Layer::kPolicyOnPlaced);
    inner_.on_placed(job, outcome);
  }
  double eviction_ttl(const byom::trace::Job& job) const override {
    const Tracer::Span span(tracer_, Layer::kPolicyTtl);
    return inner_.eviction_ttl(job);
  }

 private:
  byom::policy::PlacementPolicy& inner_;
  Tracer& tracer_;
};

class TimedHintService final : public byom::sim::HintService {
 public:
  TimedHintService(std::shared_ptr<byom::sim::HintService> inner,
                   Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool enqueue(const byom::trace::Job& job) override {
    const Tracer::Span span(tracer_, Layer::kServingEnqueue);
    return inner_->enqueue(job);
  }
  byom::sim::HintTimeliness hint_timeliness() const override {
    return inner_->hint_timeliness();
  }

 private:
  std::shared_ptr<byom::sim::HintService> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
