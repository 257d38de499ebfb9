#include "tracing.hpp"

#include "harness.hpp"

namespace pb {

namespace {

struct Frame {
  Layer layer;
  Clock::time_point start;
  double child_s = 0.0;
};
thread_local std::vector<Frame> t_stack;

/// Forwards every call to `inner` inside a span.
class TimedPredictor final : public curve::CurvePredictor {
 public:
  TimedPredictor(std::shared_ptr<const curve::CurvePredictor> inner, Tracer* tracer,
                 Layer layer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] curve::CurvePrediction predict(std::span<const double> history,
                                               std::span<const double> future_epochs,
                                               double horizon) const override {
    Span span(tracer_, layer_);
    return inner_->predict(history, future_epochs, horizon);
  }

 private:
  std::shared_ptr<const curve::CurvePredictor> inner_;
  Tracer* tracer_;
  Layer layer_;
};

/// Forwards every upcall to `inner` inside a Policy span. Transparent: no
/// code in the program inspects a policy's dynamic type.
class TimedPolicy final : public core::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<core::SchedulingPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  void on_allocate(core::SchedulerOps& ops) override {
    Span span(tracer_, Layer::Policy);
    inner_->on_allocate(ops);
  }
  void on_application_stat(core::SchedulerOps& ops, const core::JobEvent& event) override {
    Span span(tracer_, Layer::Policy);
    inner_->on_application_stat(ops, event);
  }
  core::JobDecision on_iteration_finish(core::SchedulerOps& ops,
                                        const core::JobEvent& event) override {
    Span span(tracer_, Layer::Policy);
    return inner_->on_iteration_finish(ops, event);
  }
  void on_experiment_start(core::SchedulerOps& ops) override {
    Span span(tracer_, Layer::Policy);
    inner_->on_experiment_start(ops);
  }
  void on_capacity_change(core::SchedulerOps& ops) override {
    Span span(tracer_, Layer::Policy);
    inner_->on_capacity_change(ops);
  }

 private:
  std::unique_ptr<core::SchedulingPolicy> inner_;
  Tracer* tracer_;
};

}  // namespace

void Tracer::record(Layer layer, double total_s, double self_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanTotals& t = totals_[static_cast<std::size_t>(layer)];
  t.total_s += total_s;
  t.self_s += self_s;
  ++t.count;
}

LayerTotals Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  LayerTotals out = totals_;
  totals_ = {};
  return out;
}

void Tracer::keep_cache(std::shared_ptr<const curve::CachingPredictor> cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  caches_.push_back(std::move(cache));
}

std::size_t Tracer::take_cache_entries() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t entries = 0;
  for (const auto& cache : caches_) entries += cache->size();
  caches_.clear();
  return entries;
}

Span::Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
  if (tracer_ != nullptr) t_stack.push_back({layer, Clock::now(), 0.0});
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const Frame frame = t_stack.back();
  t_stack.pop_back();
  const double total = since(frame.start);
  if (!t_stack.empty()) t_stack.back().child_s += total;
  tracer_->record(frame.layer, total, total - frame.child_s);
}

TracedPredictor make_traced_predictor(std::uint64_t seed, Tracer* tracer) {
  // Mirrors core::make_default_predictor: PredictorOptions{} with
  // lsq_samples = 200, seeded per policy, cached with CachingOptions{512}.
  curve::PredictorConfig config;
  config.lsq_samples = 200;
  config.seed = seed;
  std::shared_ptr<const curve::CurvePredictor> lsq = curve::make_lsq_predictor(config);
  auto fits = std::make_shared<TimedPredictor>(std::move(lsq), tracer, Layer::CurveFit);
  auto cache = std::make_shared<curve::CachingPredictor>(std::move(fits),
                                                         curve::CachingOptions{512});
  auto outer = std::make_shared<TimedPredictor>(cache, tracer, Layer::CurveRequest);
  return {std::move(cache), std::move(outer)};
}

std::unique_ptr<core::SchedulingPolicy> make_policy(const std::string& name,
                                                    const core::PolicyParams& params,
                                                    std::uint64_t seed, util::SimTime tmax,
                                                    Tracer* tracer) {
  core::PolicyContext ctx;
  ctx.seed = seed;
  ctx.tmax = tmax;
  if (tracer == nullptr) return core::make_registry_policy(name, params, ctx);
  TracedPredictor predictor = make_traced_predictor(seed, tracer);
  ctx.predictor = predictor.outer;
  tracer->keep_cache(predictor.cache);
  return std::make_unique<TimedPolicy>(core::make_registry_policy(name, params, ctx),
                                       tracer);
}

}  // namespace pb
