// perf_predictor: single-cell predictor throughput, the hot path of every
// MCMC fit. Times the paper-setting MCMC predictor (11 families,
// nwalkers=100, nsamples=700) on fig07 CIFAR prefixes two ways:
//
//   scalar   the same fit at the sampler level with a bench-local
//            reference evaluator wrapping CurveEnsemble::log_posterior
//   batched  curve::make_mcmc_predictor, which runs the sampler on the
//            fused BatchEvaluator kernels
//
// and records the trajectory in BENCH_predictor.json (schema: EXPERIMENTS.md).
// The acceptance bar for the fast path is speedup_batched >= 5x with the
// equivalence suite proving bit-identity.
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <chrono>
#include <cmath>

#include "curve/batch_evaluator.hpp"
#include "curve/ensemble.hpp"
#include "curve/predictor.hpp"

using namespace hyperdrive;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

curve::PredictorConfig paper_config(bool smoke) {
  curve::PredictorConfig config;
  config.mcmc.nwalkers = 100;  // full 11-family ensemble: dim 48, >= 96 walkers
  config.mcmc.nsamples = smoke ? 120 : 700;
  config.mcmc.burn_in = smoke ? 40 : 250;
  config.mcmc.thin = 5;
  config.seed = 42;
  return config;
}

/// The scalar reference: the two-pass CurveEnsemble::log_posterior behind
/// the sampler's evaluator interface.
class ReferenceLogProb final : public curve::LogProbFn {
 public:
  ReferenceLogProb(const curve::CurveEnsemble& ensemble, std::span<const double> ys)
      : ensemble_(ensemble), ys_(ys) {}

  [[nodiscard]] double log_prob(std::span<const double> theta) override {
    return ensemble_.log_posterior(theta, ys_);
  }

 private:
  const curve::CurveEnsemble& ensemble_;
  std::span<const double> ys_;
};

/// The MCMC predictor's steps at the sampler level, with the evaluator
/// chosen here: least-squares center plus jittered walkers, the ensemble
/// sampler, then the posterior-predictive mean at the horizon.
double sampler_predict_mean(const curve::PredictorConfig& config,
                            std::span<const double> history, double horizon,
                            std::uint64_t seed, bool fused) {
  curve::CurveEnsemble ensemble(curve::make_all_models(), horizon, config.prior);
  util::Rng rng(seed);
  const auto center = ensemble.initial_theta(history);
  std::vector<double> walkers(center.begin(), center.end());
  for (std::size_t i = 1; i < config.mcmc.nwalkers; ++i) {
    const auto w = ensemble.jitter(center, rng);
    walkers.insert(walkers.end(), w.begin(), w.end());
  }
  curve::McmcResult mcmc;
  if (fused) {
    curve::BatchEvaluator evaluator(ensemble);
    evaluator.bind(history);
    mcmc = curve::run_ensemble_mcmc(evaluator, std::move(walkers), ensemble.dim(),
                                    config.mcmc, rng);
  } else {
    ReferenceLogProb reference(ensemble, history);
    mcmc = curve::run_ensemble_mcmc(reference, std::move(walkers), ensemble.dim(),
                                    config.mcmc, rng);
  }
  double acc = 0.0;
  std::size_t kept = 0;
  for (std::size_t s = 0; s < mcmc.num_samples(); ++s) {
    const auto theta = mcmc.sample(s);
    const double y = ensemble.eval(horizon, theta) +
                     rng.normal(0.0, std::exp(theta[ensemble.sigma_offset()]));
    if (!std::isfinite(y)) continue;
    acc += y;
    ++kept;
  }
  return kept == 0 ? 0.0 : acc / static_cast<double>(kept);
}

struct Timing {
  double predicts_per_s = 0.0;
  double mean = 0.0;  ///< mean of the predicted horizon means
};

/// The request pattern POP issues at evaluation boundaries: fits on a
/// growing prefix of the same curve (epochs 10, 20, 30), `repeats` times.
/// The first epoch is perturbed per repeat so every repeat is a fresh curve.
/// `predict(history, request_index)` returns the predicted horizon mean.
template <class Predict>
Timing time_predicts(const std::vector<double>& full_curve, std::size_t repeats,
                     Predict&& predict) {
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const std::size_t prefix : {10u, 20u, 30u}) {
      std::vector<double> history(full_curve.begin(), full_curve.begin() + prefix);
      history.front() += 1e-9 * static_cast<double>(r + 1);
      acc += predict(history, n);
      ++n;
    }
  }
  const double elapsed = seconds_since(t0);
  return {static_cast<double>(n) / elapsed, acc / static_cast<double>(n)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_bench_args(argc, argv);
  bench::print_header("perf_predictor",
                      "single-cell MCMC predictor throughput: scalar vs batched");

  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 8, /*seed=*/4242);
  const auto& curve_data = trace.jobs.front().curve.perf;
  const std::size_t repeats = options.smoke ? 1 : 4;

  const auto wall0 = std::chrono::steady_clock::now();

  const auto config = paper_config(options.smoke);
  constexpr double kHorizon = 120.0;
  const std::vector<double> future = {kHorizon};

  // Scalar leg: the request index seeds each fit, so the fused replay below
  // draws exactly the same RNG streams.
  const Timing scalar =
      time_predicts(curve_data, repeats, [&](std::span<const double> history, std::size_t i) {
        return sampler_predict_mean(config, history, kHorizon, i, /*fused=*/false);
      });
  std::printf("  scalar:  %8.3f predicts/s\n", scalar.predicts_per_s);

  const auto predictor = curve::make_mcmc_predictor(config);
  const Timing batched =
      time_predicts(curve_data, repeats, [&](std::span<const double> history, std::size_t) {
        return predictor->predict(history, future, kHorizon).mean_at(0);
      });
  const double speedup = batched.predicts_per_s / scalar.predicts_per_s;
  std::printf("  batched: %8.3f predicts/s  (speedup %.2fx)\n", batched.predicts_per_s,
              speedup);

  // Bit-identity sanity on the exact workload the scalar leg timed: the
  // fused kernels under the same seeds must reproduce its posterior means
  // (the full contract lives in predictor_equivalence_test).
  const Timing fused =
      time_predicts(curve_data, repeats, [&](std::span<const double> history, std::size_t i) {
        return sampler_predict_mean(config, history, kHorizon, i, /*fused=*/true);
      });
  if (scalar.mean != fused.mean) {
    std::printf("\nFAIL: fused posterior mean diverged from scalar\n");
    return 1;
  }

  bench::BenchJson json("perf_predictor");
  json.set("wall_ms", 1000.0 * seconds_since(wall0));
  json.set("scalar_predicts_per_s", scalar.predicts_per_s);
  json.set("batched_predicts_per_s", batched.predicts_per_s);
  json.set("speedup_batched", speedup);
  json.set_count("nwalkers", 100);
  json.set_count("nsamples", options.smoke ? 120 : 700);
  json.set_count("repeats", repeats);
  json.set_count("smoke", options.smoke ? 1 : 0);
  json.write_file(options.out.empty() ? "BENCH_predictor.json" : options.out);

  std::printf("\nspeedup (batched vs scalar): %.2fx (bar: >= 5x at the paper setting)\n",
              speedup);
  return 0;
}
