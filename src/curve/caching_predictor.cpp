#include "curve/caching_predictor.hpp"

#include <cstring>
#include <stdexcept>

namespace hyperdrive::curve {

namespace {
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// FNV-1a over doubles' bit patterns.
std::uint64_t hash_doubles(std::uint64_t h, std::span<const double> xs) {
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(xs.size());
  for (const double x : xs) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    mix(bits);
  }
  return h;
}
}  // namespace

CachingPredictor::CachingPredictor(std::shared_ptr<const CurvePredictor> inner,
                                   CachingOptions options, obs::Scope scope)
    : inner_(std::move(inner)), options_(options), obs_(std::move(scope)) {
  if (!inner_) throw std::invalid_argument("CachingPredictor needs an inner predictor");
  if (options_.capacity == 0) throw std::invalid_argument("cache capacity must be >= 1");
}

CurvePrediction CachingPredictor::predict(std::span<const double> history,
                                          std::span<const double> future_epochs,
                                          double horizon) const {
  std::uint64_t key = kFnvBasis;
  key = hash_doubles(key, history);
  key = hash_doubles(key, future_epochs);
  key = hash_doubles(key, std::span<const double>(&horizon, 1));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
      if (obs_.metrics != nullptr) obs_.metrics->counter("predictor.cache_hits").add();
      // Untimed event: the predictor runs outside the simulation clock.
      obs_.emit(obs::TraceEvent(obs::EventKind::PredictorCacheHit));
      return it->second->prediction;
    }
    ++misses_;
  }
  if (obs_.metrics != nullptr) obs_.metrics->counter("predictor.fits").add();
  obs_.emit(obs::TraceEvent(obs::EventKind::PredictorFit));

  // Compute outside the lock: concurrent misses on different keys must not
  // serialize on the inner LSQ/MCMC work (inner predictors are stateless).
  CurvePrediction prediction = inner_->predict(history, future_epochs, horizon);

  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_.find(key) == cache_.end()) {  // another thread may have raced us
    lru_.push_front(Entry{key, prediction});
    cache_[key] = lru_.begin();
    if (cache_.size() > options_.capacity) {
      cache_.erase(lru_.back().key);
      lru_.pop_back();
    }
  }
  return prediction;
}

std::size_t CachingPredictor::hits() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t CachingPredictor::misses() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t CachingPredictor::size() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

std::shared_ptr<const CurvePredictor> with_cache(std::shared_ptr<const CurvePredictor> inner,
                                                 CachingOptions options, obs::Scope scope) {
  return std::make_shared<CachingPredictor>(std::move(inner), options, std::move(scope));
}

}  // namespace hyperdrive::curve
