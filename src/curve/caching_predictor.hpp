// CachingPredictor — a memoizing decorator around any CurvePredictor.
//
// The Node Agents (§5.2) keep per-job curve histories locally and only
// recompute a prediction when the job's history has grown past a new
// evaluation boundary. Since policies may consult the predictor repeatedly
// for the same (history, horizon) — e.g. POP's classification runs on every
// active job's boundary — memoizing the posterior avoids redundant MCMC/LSQ
// work. Predictors are deterministic per (config, history), so caching is
// semantics-preserving.
//
// Thread safety: a single instance may be shared across threads (e.g. sweep
// cells hammering one predictor). The LRU state and hit/miss counters are
// guarded by an internal mutex; the inner predictor runs outside the lock,
// so concurrent misses do not serialize on the expensive LSQ/MCMC work.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "curve/predictor.hpp"
#include "obs/scope.hpp"

namespace hyperdrive::curve {

struct CachingOptions {
  /// LRU capacity for memoized predictions.
  std::size_t capacity = 256;
};

class CachingPredictor final : public CurvePredictor {
 public:
  /// Wraps `inner` with an LRU cache of `options.capacity` predictions. With
  /// an attached scope, every predict() emits an untimed PredictorFit (cache
  /// miss) or PredictorCacheHit event and bumps the predictor.fits /
  /// predictor.cache_hits counters (DESIGN.md §10).
  explicit CachingPredictor(std::shared_ptr<const CurvePredictor> inner,
                            CachingOptions options = {}, obs::Scope scope = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "caching"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override;

  [[nodiscard]] std::size_t hits() const noexcept;
  [[nodiscard]] std::size_t misses() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;

 private:
  struct Entry {
    std::uint64_t key;
    CurvePrediction prediction;
  };

  std::shared_ptr<const CurvePredictor> inner_;
  CachingOptions options_;
  obs::Scope obs_;
  // LRU: most-recent at the front; map points into the list. All members
  // below are guarded by mutex_ (predict() is const but mutates).
  mutable std::mutex mutex_;
  mutable std::list<Entry> lru_;
  mutable std::unordered_map<std::uint64_t, std::list<Entry>::iterator> cache_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Convenience: wrap a predictor. Pass a scope to observe fit/cache-hit
/// activity; the default detached scope adds nothing.
[[nodiscard]] std::shared_ptr<const CurvePredictor> with_cache(
    std::shared_ptr<const CurvePredictor> inner, CachingOptions options = {},
    obs::Scope scope = {});

}  // namespace hyperdrive::curve
