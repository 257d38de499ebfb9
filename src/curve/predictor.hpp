// CurvePredictor — the pluggable learning-curve prediction component (§9
// "Learning curve prediction ... designed as a pluggable component of
// HyperDrive, so users can easily switch to other prediction methods").
//
// A predictor consumes the observed performance prefix of one job
// (ys[i] = normalized performance after epoch i+1) and produces a posterior
// over future performance, represented as sampled curves. POP derives from it
// P(y(m) >= y_target), the expected-remaining-time pmf (Eq. 2–3) and the
// prediction confidence p.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "curve/ensemble.hpp"
#include "curve/mcmc.hpp"

namespace hyperdrive::curve {

/// Posterior over future performance at a set of absolute future epochs.
/// Samples are stored as one flat row-major matrix (num_samples() rows of
/// epochs().size() values) so a predict call makes O(1) bulk allocations
/// instead of one vector per sampled curve.
class CurvePrediction {
 public:
  CurvePrediction() = default;
  CurvePrediction(std::vector<double> epochs, std::vector<std::vector<double>> sample_curves);
  /// Flat constructor: `flat_samples` holds `num_samples` rows of
  /// `epochs.size()` values each, row-major.
  CurvePrediction(std::vector<double> epochs, std::vector<double> flat_samples,
                  std::size_t num_samples);

  [[nodiscard]] const std::vector<double>& epochs() const noexcept { return epochs_; }
  [[nodiscard]] std::size_t num_samples() const noexcept { return nsamples_; }
  [[nodiscard]] bool empty() const noexcept { return nsamples_ == 0; }

  /// Posterior mean of y(epoch_idx).
  [[nodiscard]] double mean_at(std::size_t epoch_idx) const;
  /// Posterior standard deviation — the paper's "prediction accuracy PA".
  [[nodiscard]] double stddev_at(std::size_t epoch_idx) const;
  /// P(y(epoch_idx) >= y): fraction of posterior curves at or above y.
  [[nodiscard]] double prob_at_least(std::size_t epoch_idx, double y) const;
  /// P(max over epochs [0..epoch_idx] of y >= target): probability the target
  /// has been *reached by* that epoch. Monotone non-decreasing in epoch_idx,
  /// which makes the ERT pmf (Eq. 2) non-negative by construction.
  [[nodiscard]] double prob_reached_by(std::size_t epoch_idx, double y) const;

  /// Raw sample access for plotting confidence bands (Fig. 2c / Fig. 3):
  /// the flat row-major matrix, and one row as a span.
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }
  [[nodiscard]] std::span<const double> sample(std::size_t s) const {
    return std::span<const double>(samples_).subspan(s * epochs_.size(), epochs_.size());
  }

 private:
  void finalize();

  std::vector<double> epochs_;
  /// samples_[s * epochs_.size() + e] = sampled performance of curve s at
  /// epochs_[e].
  std::vector<double> samples_;
  /// Row-major running max over each row of samples_; cached for
  /// prob_reached_by.
  std::vector<double> running_max_;
  std::size_t nsamples_ = 0;
};

struct PredictorConfig {
  /// Which parametric families to use; empty means all 11.
  std::vector<std::string> model_names;
  /// MCMC settings (nwalkers=100 / nsamples=700 is the paper's optimized
  /// setting; tests and the simulator use smaller values for speed).
  McmcOptions mcmc;
  /// Number of bootstrap curves drawn by the fast LSQ predictor.
  std::size_t lsq_samples = 200;
  /// Fraction of LSQ bootstrap samples drawn from slope-based continuations
  /// instead of family fits. Least-squares point fits of short prefixes are
  /// systematically overconfident (they collapse to the nearest asymptote);
  /// these samples restore the "might keep climbing" posterior mass that
  /// the full MCMC ensemble represents through its asymptote spread.
  double lsq_optimistic_fraction = 0.35;
  EnsemblePrior prior;
  std::uint64_t seed = 0x5eed;
};

class CurvePredictor {
 public:
  virtual ~CurvePredictor() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Predict performance at the given absolute future epochs (each >
  /// history.size()). `horizon` is the largest epoch the caller will ever ask
  /// about (prior support). Deterministic for a fixed config and history.
  [[nodiscard]] virtual CurvePrediction predict(std::span<const double> history,
                                                std::span<const double> future_epochs,
                                                double horizon) const = 0;
};

/// Full probabilistic predictor: 11-family ensemble + affine-invariant MCMC,
/// with log-posterior evaluation on the fused BatchEvaluator kernels.
[[nodiscard]] std::unique_ptr<CurvePredictor> make_mcmc_predictor(PredictorConfig config);

/// Fast approximation: per-family least-squares fits + residual bootstrap.
/// Orders of magnitude cheaper; used by the trace-driven simulator benches.
[[nodiscard]] std::unique_ptr<CurvePredictor> make_lsq_predictor(PredictorConfig config);

/// Degenerate predictor that extrapolates the last observation flat, with a
/// small noise envelope. Models prior work's "instantaneous accuracy only"
/// view (§2.2a) — used for the ablation bench.
[[nodiscard]] std::unique_ptr<CurvePredictor> make_last_value_predictor(
    PredictorConfig config);

}  // namespace hyperdrive::curve
