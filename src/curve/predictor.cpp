#include "curve/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "curve/batch_evaluator.hpp"

namespace hyperdrive::curve {

namespace {

/// FNV-1a over the bit patterns of the history so that a predictor call is
/// deterministic per (seed, history) regardless of call order.
std::uint64_t hash_history(std::span<const double> ys) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(ys.size());
  for (double y : ys) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(y));
    std::memcpy(&bits, &y, sizeof(bits));
    mix(bits);
  }
  return h;
}

std::vector<std::unique_ptr<ParametricModel>> models_from_config(
    const PredictorConfig& config) {
  return config.model_names.empty() ? make_all_models() : make_models(config.model_names);
}

void validate_request(std::span<const double> history, std::span<const double> future_epochs,
                      double horizon) {
  if (history.empty()) throw std::invalid_argument("predict: empty history");
  if (future_epochs.empty()) throw std::invalid_argument("predict: no future epochs");
  if (!(horizon >= 1.0)) throw std::invalid_argument("predict: bad horizon");
  for (double e : future_epochs) {
    if (e <= static_cast<double>(history.size())) {
      throw std::invalid_argument("predict: future epoch not after history");
    }
  }
}

class McmcPredictor final : public CurvePredictor {
 public:
  explicit McmcPredictor(PredictorConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "mcmc"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    validate_request(history, future_epochs, horizon);
    CurveEnsemble ensemble(models_from_config(config_), horizon, config_.prior);
    util::Rng rng(util::derive_seed(config_.seed, hash_history(history)));
    const std::size_t dim = ensemble.dim();

    const auto center = ensemble.initial_theta(history);
    std::vector<double> walkers;
    walkers.reserve(config_.mcmc.nwalkers * dim);
    // First walker exactly at the least-squares center, the rest jittered.
    walkers.insert(walkers.end(), center.begin(), center.end());
    for (std::size_t i = 1; i < config_.mcmc.nwalkers; ++i) {
      const auto w = ensemble.jitter(center, rng);
      walkers.insert(walkers.end(), w.begin(), w.end());
    }
    // One evaluator per thread: its scratch arenas persist across predict
    // calls, so a steady-state sweep cell allocates nothing here.
    thread_local BatchEvaluator evaluator;
    evaluator.reset(ensemble);
    evaluator.bind(history);
    const McmcResult mcmc =
        run_ensemble_mcmc(evaluator, std::move(walkers), dim, config_.mcmc, rng);

    // Posterior predictive over *observed* performance: latent curve plus
    // each sample's own observation noise. Reported validation accuracy is
    // noisy, and targets are detected on the noisy values, so reached-by
    // probabilities must integrate the noise (a config plateauing just below
    // the target still has real probability of an observed crossing).
    const std::size_t width = future_epochs.size();
    std::vector<double> flat;
    flat.reserve(mcmc.num_samples() * width);
    std::vector<double> row(width);
    std::size_t kept = 0;
    for (std::size_t s = 0; s < mcmc.num_samples(); ++s) {
      const auto theta = mcmc.sample(s);
      const double sigma = std::exp(theta[ensemble.sigma_offset()]);
      bool ok = true;
      for (std::size_t e = 0; e < width; ++e) {
        row[e] = evaluator.eval_curve(future_epochs[e], theta) + rng.normal(0.0, sigma);
        if (!std::isfinite(row[e])) {
          ok = false;
          break;
        }
      }
      if (ok) {
        flat.insert(flat.end(), row.begin(), row.end());
        ++kept;
      }
    }
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(flat), kept);
  }

 private:
  PredictorConfig config_;
};

class LsqPredictor final : public CurvePredictor {
 public:
  explicit LsqPredictor(PredictorConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "lsq_bootstrap"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    validate_request(history, future_epochs, horizon);
    const auto models = models_from_config(config_);
    util::Rng rng(util::derive_seed(config_.seed ^ 0xf457, hash_history(history)));

    // Per-family least-squares fit.
    std::vector<FamilyFit> fits;
    fits.reserve(models.size());
    double best_mse = std::numeric_limits<double>::infinity();
    for (const auto& model : models) {
      fits.push_back(model->fit(history));
      best_mse = std::min(best_mse, fits.back().mse);
    }

    // Mixture weights via a softmax over fit quality: families that explain
    // the prefix much worse than the best get negligible weight.
    std::vector<double> weights(models.size(), 0.0);
    const double scale = std::max(best_mse, 1e-6);
    for (std::size_t k = 0; k < models.size(); ++k) {
      if (!std::isfinite(fits[k].mse)) continue;
      weights[k] = std::exp(-0.5 * (fits[k].mse - best_mse) / scale);
    }

    const double sigma = std::clamp(std::sqrt(std::max(best_mse, 1e-8)), 2e-3, 0.3);
    const double last = history.back();

    // Recent slope for the continuation samples: mean of the last few
    // first differences.
    double slope = 0.0;
    {
      const std::size_t window = std::min<std::size_t>(5, history.size() - 1);
      if (window > 0) {
        for (std::size_t i = history.size() - window; i < history.size(); ++i) {
          slope += history[i] - history[i - 1];
        }
        slope /= static_cast<double>(window);
      }
    }

    // Bootstrap: sample a family, jitter its fitted curve by a random offset
    // and slope perturbation scaled to the residual noise. A configurable
    // fraction of samples instead follow geometrically-damped continuations
    // of the recent slope (see lsq_optimistic_fraction).
    const std::size_t width = future_epochs.size();
    std::vector<double> flat;
    flat.reserve(config_.lsq_samples * width);
    std::vector<double> curve(width);
    const double n = static_cast<double>(history.size());
    for (std::size_t s = 0; s < config_.lsq_samples; ++s) {
      if (rng.bernoulli(config_.lsq_optimistic_fraction)) {
        // Continuation sample: y(x) = last + slope * sum_{j<=x-n} gamma^j,
        // gamma ~ U(0.80, 1.0). gamma -> 1 extrapolates the trend linearly;
        // small gamma saturates quickly. Flat histories stay flat, so this
        // adds no false hope to non-learners.
        const double gamma = rng.uniform(0.80, 1.0);
        const double offset = rng.normal(0.0, sigma);
        for (std::size_t e = 0; e < width; ++e) {
          const double steps = future_epochs[e] - n;
          const double geo = gamma >= 0.9999
                                 ? steps
                                 : gamma * (1.0 - std::pow(gamma, steps)) / (1.0 - gamma);
          curve[e] = std::clamp(last + slope * geo + offset + rng.normal(0.0, sigma),
                                config_.prior.y_lo, config_.prior.y_hi);
        }
        flat.insert(flat.end(), curve.begin(), curve.end());
        continue;
      }
      const std::size_t k = rng.categorical(weights);
      const auto& model = *models[k];
      const double offset = rng.normal(0.0, sigma);
      // Uncertainty about the asymptote grows with extrapolation distance.
      const double drift = rng.normal(0.0, sigma);
      bool ok = true;
      for (std::size_t e = 0; e < width; ++e) {
        const double x = future_epochs[e];
        double y = model.eval(x, fits[k].params);
        if (!std::isfinite(y)) {
          ok = false;
          break;
        }
        const double dist = std::max(0.0, (x - n) / std::max(1.0, n));
        // Offset/drift model parameter uncertainty; the extra per-epoch term
        // is the observation noise of the posterior predictive.
        y += offset + drift * std::min(2.0, dist) + rng.normal(0.0, sigma);
        curve[e] = std::clamp(y, config_.prior.y_lo, config_.prior.y_hi);
      }
      if (!ok) {
        // Fall back to a flat continuation of the last observation.
        std::fill(curve.begin(), curve.end(), last);
        for (auto& y : curve) y += rng.normal(0.0, sigma);
      }
      flat.insert(flat.end(), curve.begin(), curve.end());
    }
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(flat), config_.lsq_samples);
  }

 private:
  PredictorConfig config_;
};

class LastValuePredictor final : public CurvePredictor {
 public:
  explicit LastValuePredictor(PredictorConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "last_value"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    validate_request(history, future_epochs, horizon);
    util::Rng rng(util::derive_seed(config_.seed ^ 0x1a57, hash_history(history)));
    const double last = history.back();
    // Noise floor from recent history variability.
    double sigma = 0.01;
    if (history.size() >= 4) {
      double acc = 0.0;
      for (std::size_t i = history.size() - 3; i < history.size(); ++i) {
        acc += std::fabs(history[i] - history[i - 1]);
      }
      sigma = std::max(0.005, acc / 3.0);
    }
    const std::size_t nsamples = std::max<std::size_t>(32, config_.lsq_samples);
    const std::size_t width = future_epochs.size();
    std::vector<double> flat(nsamples * width);
    for (std::size_t s = 0; s < nsamples; ++s) {
      const double offset = rng.normal(0.0, sigma);
      std::fill(flat.begin() + static_cast<std::ptrdiff_t>(s * width),
                flat.begin() + static_cast<std::ptrdiff_t>((s + 1) * width), last + offset);
    }
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(flat), nsamples);
  }

 private:
  PredictorConfig config_;
};

}  // namespace

CurvePrediction::CurvePrediction(std::vector<double> epochs,
                                 std::vector<std::vector<double>> sample_curves)
    : epochs_(std::move(epochs)), nsamples_(sample_curves.size()) {
  samples_.reserve(nsamples_ * epochs_.size());
  for (const auto& s : sample_curves) {
    if (s.size() != epochs_.size()) {
      throw std::invalid_argument("CurvePrediction: sample width mismatch");
    }
    samples_.insert(samples_.end(), s.begin(), s.end());
  }
  finalize();
}

CurvePrediction::CurvePrediction(std::vector<double> epochs, std::vector<double> flat_samples,
                                 std::size_t num_samples)
    : epochs_(std::move(epochs)), samples_(std::move(flat_samples)), nsamples_(num_samples) {
  if (samples_.size() != nsamples_ * epochs_.size()) {
    throw std::invalid_argument("CurvePrediction: sample width mismatch");
  }
  finalize();
}

void CurvePrediction::finalize() {
  const std::size_t width = epochs_.size();
  running_max_.resize(samples_.size());
  for (std::size_t s = 0; s < nsamples_; ++s) {
    double acc = -std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < width; ++e) {
      acc = std::max(acc, samples_[s * width + e]);
      running_max_[s * width + e] = acc;
    }
  }
}

double CurvePrediction::mean_at(std::size_t epoch_idx) const {
  if (nsamples_ == 0) return 0.0;
  if (epoch_idx >= epochs_.size()) throw std::out_of_range("CurvePrediction: epoch index");
  const std::size_t width = epochs_.size();
  double s = 0.0;
  for (std::size_t r = 0; r < nsamples_; ++r) s += samples_[r * width + epoch_idx];
  return s / static_cast<double>(nsamples_);
}

double CurvePrediction::stddev_at(std::size_t epoch_idx) const {
  if (nsamples_ < 2) return 0.0;
  const double m = mean_at(epoch_idx);
  const std::size_t width = epochs_.size();
  double acc = 0.0;
  for (std::size_t r = 0; r < nsamples_; ++r) {
    const double d = samples_[r * width + epoch_idx] - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(nsamples_ - 1));
}

double CurvePrediction::prob_at_least(std::size_t epoch_idx, double y) const {
  if (nsamples_ == 0) return 0.0;
  if (epoch_idx >= epochs_.size()) throw std::out_of_range("CurvePrediction: epoch index");
  const std::size_t width = epochs_.size();
  std::size_t hits = 0;
  for (std::size_t r = 0; r < nsamples_; ++r) {
    if (samples_[r * width + epoch_idx] >= y) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(nsamples_);
}

double CurvePrediction::prob_reached_by(std::size_t epoch_idx, double y) const {
  if (nsamples_ == 0) return 0.0;
  if (epoch_idx >= epochs_.size()) throw std::out_of_range("CurvePrediction: epoch index");
  const std::size_t width = epochs_.size();
  std::size_t hits = 0;
  for (std::size_t r = 0; r < nsamples_; ++r) {
    if (running_max_[r * width + epoch_idx] >= y) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(nsamples_);
}

std::unique_ptr<CurvePredictor> make_mcmc_predictor(PredictorConfig config) {
  return std::make_unique<McmcPredictor>(std::move(config));
}

std::unique_ptr<CurvePredictor> make_lsq_predictor(PredictorConfig config) {
  return std::make_unique<LsqPredictor>(std::move(config));
}

std::unique_ptr<CurvePredictor> make_last_value_predictor(PredictorConfig config) {
  return std::make_unique<LastValuePredictor>(std::move(config));
}

}  // namespace hyperdrive::curve
