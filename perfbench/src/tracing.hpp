// Tracing for the traced run (--trace 1). Spans are recorded only from the
// benchmark's own code: around the calls it makes into each layer, and
// inside decorators it hands to the program through public interfaces
// (curve::CurvePredictor, core::SchedulingPolicy, obs::EventSink). A layer's
// self time is its span time minus the time of the spans opened inside it on
// the same thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/sap.hpp"
#include "curve/caching_predictor.hpp"
#include "curve/predictor.hpp"
#include "obs/sink.hpp"
#include "util/sim_time.hpp"

namespace pb {

namespace core = hyperdrive::core;
namespace curve = hyperdrive::curve;
namespace obs = hyperdrive::obs;
namespace util = hyperdrive::util;

enum class Layer : std::size_t {
  Experiment,    ///< core::run_experiment (cluster + sim below the policy)
  Study,         ///< core::StudyManager::run (arbitration + tenant clusters)
  Recoverable,   ///< core::run_recoverable_multi_study, fresh run with crash
  Resume,        ///< core::run_recoverable_multi_study, resume from frames
  Policy,        ///< every core::SchedulingPolicy upcall
  CurveRequest,  ///< predictor requests, outside the caching decorator
  CurveFit,      ///< predictor fits, inside the caching decorator
  CkptEncode,    ///< core::encode_checkpoint
  CkptDecode,    ///< core::decode_checkpoint
  SvcSubmit,     ///< svc::Client::submit
  SvcStatus,     ///< svc::Client::status
  SvcFetch,      ///< svc::Client::fetch
  Count,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};
using LayerTotals = std::array<SpanTotals, kLayers>;

/// Counts the events a run emits through its obs::Scope.
class CountingSink final : public obs::EventSink {
 public:
  void on_event(const obs::TraceEvent& /*event*/) override {
    events.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> events{0};
};

/// Accumulates span totals per layer until take() hands them out, and counts
/// the events of traced runs (attach `sink` to their obs::Scope).
class Tracer {
 public:
  void record(Layer layer, double total_s, double self_s);
  /// Totals since the last take(), and reset.
  [[nodiscard]] LayerTotals take();
  /// Hold a traced policy's cache until take_cache_entries().
  void keep_cache(std::shared_ptr<const curve::CachingPredictor> cache);
  /// Sum of the entries held by the kept caches, and forget them.
  [[nodiscard]] std::size_t take_cache_entries();

  CountingSink sink;

 private:
  std::mutex mutex_;
  LayerTotals totals_{};
  std::vector<std::shared_ptr<const curve::CachingPredictor>> caches_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// The predictor stack core::make_default_predictor builds (LSQ, 200
/// bootstrap samples, LRU cache of 512), with a timing decorator outside the
/// cache (requests) and one inside it (fits).
struct TracedPredictor {
  std::shared_ptr<const curve::CachingPredictor> cache;
  std::shared_ptr<const curve::CurvePredictor> outer;
};
[[nodiscard]] TracedPredictor make_traced_predictor(std::uint64_t seed, Tracer* tracer);

/// Registry policy built as the program builds it (core::make_registry_policy
/// with the default predictor). With a tracer, the predictor is the traced
/// stack above and the policy is wrapped in a timing decorator.
[[nodiscard]] std::unique_ptr<core::SchedulingPolicy> make_policy(
    const std::string& name, const core::PolicyParams& params, std::uint64_t seed,
    util::SimTime tmax, Tracer* tracer);

}  // namespace pb
