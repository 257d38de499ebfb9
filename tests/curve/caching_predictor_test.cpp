#include "curve/caching_predictor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace hyperdrive::curve {
namespace {

/// A predictor that counts invocations and returns a deterministic flat
/// posterior derived from the request.
class CountingPredictor final : public CurvePredictor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "counting"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double /*horizon*/) const override {
    ++calls;
    std::vector<std::vector<double>> samples(
        4, std::vector<double>(future_epochs.size(), history.back()));
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(samples));
  }

  mutable int calls = 0;
};

TEST(CachingPredictorTest, ValidatesConstruction) {
  EXPECT_THROW(CachingPredictor(nullptr, CachingOptions{4}), std::invalid_argument);
  EXPECT_THROW(CachingPredictor(std::make_shared<CountingPredictor>(), CachingOptions{0}),
               std::invalid_argument);
}

TEST(CachingPredictorTest, RepeatedRequestsHitTheCache) {
  auto inner = std::make_shared<CountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{8});
  const std::vector<double> history = {0.1, 0.2, 0.3};
  const std::vector<double> future = {10.0, 20.0};

  const auto a = cached.predict(history, future, 120.0);
  const auto b = cached.predict(history, future, 120.0);
  EXPECT_EQ(inner->calls, 1);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(a.mean_at(0), b.mean_at(0));
}

TEST(CachingPredictorTest, DifferentRequestsMiss) {
  auto inner = std::make_shared<CountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{8});
  const std::vector<double> history = {0.1, 0.2, 0.3};
  (void)cached.predict(history, std::vector<double>{10.0}, 120.0);
  (void)cached.predict(history, std::vector<double>{11.0}, 120.0);  // future differs
  (void)cached.predict(history, std::vector<double>{10.0}, 100.0);  // horizon differs
  (void)cached.predict(std::vector<double>{0.1, 0.2}, std::vector<double>{10.0},
                       120.0);  // history differs
  EXPECT_EQ(inner->calls, 4);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachingPredictorTest, LruEvictsOldestEntry) {
  auto inner = std::make_shared<CountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{2});
  const std::vector<double> h1 = {0.1}, h2 = {0.2}, h3 = {0.3};
  const std::vector<double> future = {5.0};
  (void)cached.predict(h1, future, 120.0);  // miss (h1 cached)
  (void)cached.predict(h2, future, 120.0);  // miss (h2 cached)
  (void)cached.predict(h1, future, 120.0);  // hit, promotes h1
  (void)cached.predict(h3, future, 120.0);  // miss, evicts h2 (LRU)
  (void)cached.predict(h1, future, 120.0);  // hit
  (void)cached.predict(h2, future, 120.0);  // miss (was evicted)
  EXPECT_EQ(inner->calls, 4);
  EXPECT_EQ(cached.hits(), 2u);
  EXPECT_EQ(cached.size(), 2u);
}

/// Thread-safe variant of CountingPredictor for the concurrency hammer.
class AtomicCountingPredictor final : public CurvePredictor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "atomic-counting"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double /*horizon*/) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::vector<double>> samples(
        4, std::vector<double>(future_epochs.size(), history.back()));
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(samples));
  }

  mutable std::atomic<int> calls{0};
};

// N threads hammer one shared instance with overlapping keys. Run under
// TSan in CI (the sweep layer shares a CachingPredictor across worker
// threads whenever one PolicySpec is reused, so this must be data-race
// free, not just crash-free).
TEST(CachingPredictorTest, ConcurrentHammerStaysConsistent) {
  auto inner = std::make_shared<AtomicCountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{16});

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 200;
  const std::vector<double> future = {5.0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cached, &future, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        // 32 distinct keys against a 16-entry cache: constant hit/miss/evict
        // churn from every thread.
        const std::vector<double> history = {0.1 + 0.01 * ((t * 7 + i) % 32)};
        const auto prediction = cached.predict(history, future, 120.0);
        // The cached posterior must always be the one for *this* key.
        ASSERT_DOUBLE_EQ(prediction.mean_at(0), history.back());
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every request either hit the cache or went to the inner predictor.
  EXPECT_EQ(cached.hits() + cached.misses(),
            static_cast<std::size_t>(kThreads) * kCallsPerThread);
  // The inner predictor ran at most once per miss (double-insert races may
  // compute a value twice but never corrupt the counters past misses).
  EXPECT_LE(static_cast<std::size_t>(inner->calls.load()), cached.misses());
  EXPECT_LE(cached.size(), 16u);
}

TEST(CachingPredictorTest, WrapHelperSharesSemantics) {
  auto inner = std::make_shared<CountingPredictor>();
  const auto cached = with_cache(inner, CachingOptions{4});
  const std::vector<double> history = {0.5};
  (void)cached->predict(history, std::vector<double>{3.0}, 10.0);
  (void)cached->predict(history, std::vector<double>{3.0}, 10.0);
  EXPECT_EQ(inner->calls, 1);
}

}  // namespace
}  // namespace hyperdrive::curve
