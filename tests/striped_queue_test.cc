// Lock-striped InferenceRequestQueue (ISSUE 6): the MPMC entry point of the
// sharded serving path. Covers the striping contracts — FIFO per stripe,
// per-stripe bounds, deterministic stripe mapping — plus
// multi-producer/multi-consumer stress and shutdown drain. The CI `tsan`
// and `asan-ubsan` jobs run this suite over the same scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "serving/inference_queue.h"

namespace byom::serving {
namespace {

using std::chrono::milliseconds;

InferenceRequest request_for(std::uint64_t job_id) {
  InferenceRequest request;
  request.job.job_id = job_id;
  request.job.job_key = "pipe/step";
  request.enqueued_at = std::chrono::steady_clock::now();
  return request;
}

// The job id of the next queued request, if any (a zero-wait pop of one).
std::optional<std::uint64_t> pop_one(InferenceRequestQueue& queue) {
  std::vector<InferenceRequest> out;
  if (queue.pop_batch(out, 1, milliseconds(0)) == 0) return std::nullopt;
  return out.front().job.job_id;
}

TEST(StripedQueue, RejectsZeroCapacityAndZeroStripes) {
  EXPECT_THROW(InferenceRequestQueue(0, 1), std::invalid_argument);
  EXPECT_THROW(InferenceRequestQueue(8, 0), std::invalid_argument);
}

TEST(StripedQueue, StripeMappingIsDeterministicAndInRange) {
  InferenceRequestQueue queue(64, 4);
  EXPECT_EQ(queue.num_stripes(), 4u);
  InferenceRequestQueue other(64, 4);
  std::set<std::size_t> seen;
  for (std::uint64_t id = 0; id < 256; ++id) {
    const std::size_t stripe = queue.stripe_of(id);
    EXPECT_LT(stripe, 4u);
    // Same id -> same stripe, in every instance and every run.
    EXPECT_EQ(stripe, queue.stripe_of(id));
    EXPECT_EQ(stripe, other.stripe_of(id));
    seen.insert(stripe);
  }
  // The mix spreads sequential ids over every stripe.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(StripedQueue, SingleStripeKeepsGlobalFifo) {
  InferenceRequestQueue queue(8, 1);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
  }
  for (std::uint64_t expected = 1; expected <= 5; ++expected) {
    EXPECT_EQ(pop_one(queue), std::optional<std::uint64_t>(expected));
  }
}

TEST(StripedQueue, BoundsArePerStripe) {
  InferenceRequestQueue queue(8, 4);  // 2 slots per stripe
  EXPECT_EQ(queue.capacity(), 8u);

  // Find three ids mapping to the same stripe: the third push must bounce
  // even though the queue as a whole is nearly empty.
  const std::size_t target = queue.stripe_of(0);
  std::vector<std::uint64_t> same_stripe;
  for (std::uint64_t id = 0; same_stripe.size() < 3; ++id) {
    if (queue.stripe_of(id) == target) same_stripe.push_back(id);
  }
  EXPECT_TRUE(queue.try_push(request_for(same_stripe[0])));
  EXPECT_TRUE(queue.try_push(request_for(same_stripe[1])));
  EXPECT_FALSE(queue.try_push(request_for(same_stripe[2])))
      << "per-stripe bound not enforced";
  EXPECT_EQ(queue.size(), 2u);

  // A slot frees once a request on that stripe is consumed.
  ASSERT_TRUE(pop_one(queue).has_value());
  EXPECT_TRUE(queue.try_push(request_for(same_stripe[2])));
}

TEST(StripedQueue, FifoPerStripeWithConcurrentProducers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 500;
  InferenceRequestQueue queue(kProducers * kPerProducer, 4);

  // Producer p pushes ids p*1e6 + k with k ascending; a single consumer
  // observes the global pop order directly. The striping contract: for any
  // (producer, stripe) pair, the k's must come out ascending — a stripe is
  // FIFO, and one producer's pushes to one stripe are ordered.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; k < kPerProducer; ++k) {
        const std::uint64_t id = p * 1000000ULL + k;
        while (!queue.try_push(request_for(id))) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::uint64_t> popped;
  popped.reserve(kProducers * kPerProducer);
  while (popped.size() < kProducers * kPerProducer) {
    std::vector<InferenceRequest> batch;
    if (queue.pop_batch(batch, 64, milliseconds(50)) == 0) continue;
    for (const auto& request : batch) popped.push_back(request.job.job_id);
  }
  for (auto& producer : producers) producer.join();

  // Completeness: every id exactly once.
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), kProducers * kPerProducer);

  // FIFO per (producer, stripe).
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> last_k;
  for (const std::uint64_t id : popped) {
    const std::size_t p = static_cast<std::size_t>(id / 1000000ULL);
    const std::uint64_t k = id % 1000000ULL;
    const auto key = std::make_pair(p, queue.stripe_of(id));
    const auto it = last_k.find(key);
    if (it != last_k.end()) {
      EXPECT_LT(it->second, k)
          << "stripe FIFO violated for producer " << p;
    }
    last_k[key] = k;
  }
}

TEST(StripedQueue, MpmcStressLosesNothingAndDuplicatesNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 1000;
  InferenceRequestQueue queue(256, 8);

  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; k < kPerProducer; ++k) {
        const std::uint64_t id = p * 1000000ULL + k;
        while (!queue.try_push(request_for(id))) {
          std::this_thread::yield();  // bounded queue back-pressures
        }
        accepted.fetch_add(1);
      }
    });
  }

  std::mutex popped_mutex;
  std::vector<std::uint64_t> popped;
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<InferenceRequest> batch;
      // The blocking pop returns 0 only once shut down AND drained, so a
      // consumer can exit without ever dropping an accepted request.
      while (true) {
        batch.clear();
        if (queue.pop_batch(batch, 32) == 0) break;
        std::lock_guard<std::mutex> lock(popped_mutex);
        for (const auto& request : batch) {
          popped.push_back(request.job.job_id);
        }
      }
    });
  }

  for (auto& producer : producers) producer.join();
  queue.shutdown();
  for (auto& consumer : consumers) consumer.join();

  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped.size(), kProducers * kPerProducer);
  std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size()) << "duplicate pop";
  EXPECT_EQ(queue.size(), 0u);
}

TEST(StripedQueue, ShutdownRejectsPushesAndDrainsRemainder) {
  InferenceRequestQueue queue(64, 4);
  std::vector<std::uint64_t> pushed;
  for (std::uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
    pushed.push_back(id);
  }
  queue.shutdown();
  EXPECT_TRUE(queue.shut_down());
  EXPECT_FALSE(queue.try_push(request_for(99)));

  // Everything accepted before shutdown is still drained.
  std::vector<InferenceRequest> out;
  std::size_t total = 0;
  std::size_t popped;
  while ((popped = queue.pop_batch(out, 4, milliseconds(0))) > 0) {
    total += popped;
  }
  EXPECT_EQ(total, pushed.size());
  EXPECT_EQ(queue.size(), 0u);
  // Shut down and drained: the blocking pop exits immediately with 0.
  out.clear();
  EXPECT_EQ(queue.pop_batch(out, 4), 0u);
}

TEST(StripedQueue, TimedPopTimesOutOnEmptyQueue) {
  InferenceRequestQueue queue(16, 4);
  std::vector<InferenceRequest> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(10)), 0u);
  EXPECT_FALSE(pop_one(queue).has_value());
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 5.0) << "timed pop did not time out";
}

// Zero-wait pops (Batcher::drain, the virtual-time path) are a pure sweep:
// they never enter the timed condvar wait, empty queue or not.
TEST(StripedQueue, ZeroWaitPopNeverEntersTimedWait) {
  InferenceRequestQueue queue(16, 4);
  std::vector<InferenceRequest> out;
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 0u);
  EXPECT_FALSE(pop_one(queue).has_value());
  EXPECT_EQ(queue.timed_waits(), 0u);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(queue.try_push(request_for(id)));
  }
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 3u);
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(0)), 0u);
  EXPECT_EQ(queue.timed_waits(), 0u);
}

// The counter is live: a threaded consumer's timed pop on an empty queue
// enters the wait exactly once and still blocks until its deadline.
TEST(StripedQueue, TimedPopOnEmptyQueueCountsOneTimedWait) {
  InferenceRequestQueue queue(16, 4);
  std::vector<InferenceRequest> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch(out, 8, milliseconds(5)), 0u);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, milliseconds(5));
  EXPECT_EQ(queue.timed_waits(), 1u);
}

}  // namespace
}  // namespace byom::serving
