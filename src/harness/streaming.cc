#include "harness/streaming.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace byom::harness {

namespace {

// Chunk-buffering decorator: copies the inner stream's jobs into a recycled
// chunk buffer and fires the cell's window hooks
// (StreamingCell::prepare_window) before the chunk's first job is handed
// out. Slot assignments reuse string capacity, so steady state allocates
// only what the hooks themselves build per window.
class WindowedStream final : public trace::JobStream {
 public:
  WindowedStream(trace::JobStream& inner, std::size_t chunk_jobs,
                 const sim::StreamingCell& cell)
      : inner_(&inner), cell_(&cell) {
    buffer_.reserve(std::max<std::size_t>(1, chunk_jobs));
    chunk_jobs_ = std::max<std::size_t>(1, chunk_jobs);
  }

  const trace::Job* next() override {
    if (pos_ == count_) load_chunk();
    return pos_ < count_ ? &buffer_[pos_++] : nullptr;
  }

  std::size_t size_hint() const override { return inner_->size_hint(); }
  std::uint32_t cluster_id() const override { return inner_->cluster_id(); }

 private:
  void load_chunk() {
    pos_ = 0;
    std::size_t n = 0;
    while (n < chunk_jobs_) {
      const trace::Job* job = inner_->next();
      if (job == nullptr) break;
      if (n < buffer_.size()) {
        buffer_[n] = *job;  // reuse the slot's string capacity
      } else {
        buffer_.push_back(*job);
      }
      ++n;
    }
    // Final partial chunk: shrink so the hooks see exactly the window.
    if (n < buffer_.size()) buffer_.resize(n);
    count_ = n;
    if (n > 0) cell_->prepare_window(buffer_);
  }

  trace::JobStream* inner_;
  const sim::StreamingCell* cell_;
  std::size_t chunk_jobs_ = 1;
  std::vector<trace::Job> buffer_;
  std::size_t pos_ = 0;
  std::size_t count_ = 0;
};

}  // namespace

sim::SimResult run_method_streaming(const sim::MethodFactory& factory,
                                    sim::MethodId id,
                                    trace::JobStream& stream,
                                    const trace::TraceSummary& summary,
                                    std::uint64_t ssd_capacity_bytes,
                                    const StreamingRunOptions& options) {
  sim::SimConfig config;
  config.ssd_capacity_bytes = ssd_capacity_bytes;
  config.rates = factory.cost_model().rates();
  config.record_outcomes = options.record_outcomes;
  config.counter_period = options.counter_period;
  config.counter_sink = options.counter_sink;
  config.use_trace_leads = options.use_trace_leads;
  config.max_hint_lead = options.max_hint_lead;

  const sim::StreamingCell cell = factory.make_streaming_cell(
      id, summary, options.chunk_jobs, ssd_capacity_bytes, options.make);

  if (cell.needs_materialized) {
    // Clairvoyant methods (oracles) rank the whole test trace before the
    // replay starts; streaming cannot help them. Materialize once, build
    // the regular cell, and replay through the same engine path (the Trace
    // overload fills horizon/expected_jobs itself).
    std::vector<trace::Job> jobs;
    jobs.reserve(summary.job_count);
    while (const trace::Job* job = stream.next()) jobs.push_back(*job);
    const trace::Trace test(stream.cluster_id(), std::move(jobs));
    const auto context =
        factory.make_context(id, test, ssd_capacity_bytes, options.make);
    config.clock = context.clock;
    config.hint_service = context.hint_service;
    config.staleness = context.staleness;
    return sim::simulate(test, *context.policy, config);
  }

  config.clock = cell.context.clock;
  config.hint_service = cell.context.hint_service;
  config.staleness = cell.context.staleness;
  config.horizon_start = summary.start_time;
  config.horizon_end = summary.end_time;
  config.expected_jobs = summary.job_count;

  if (cell.window_hints || cell.window_enqueue) {
    WindowedStream windowed(stream, options.chunk_jobs, cell);
    return sim::simulate(windowed, *cell.context.policy, config);
  }
  return sim::simulate(stream, *cell.context.policy, config);
}

}  // namespace byom::harness
