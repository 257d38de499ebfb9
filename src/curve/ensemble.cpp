#include "curve/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hyperdrive::curve {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kLog2Pi = 1.8378770664093453;
}  // namespace

CurveEnsemble::CurveEnsemble(std::vector<std::unique_ptr<ParametricModel>> models,
                             double horizon, EnsemblePrior prior)
    : models_(std::move(models)), horizon_(horizon), prior_(prior) {
  if (models_.empty()) throw std::invalid_argument("CurveEnsemble needs at least one model");
  if (!(horizon_ >= 1.0)) throw std::invalid_argument("horizon must be >= 1");
  offsets_.reserve(models_.size());
  std::size_t off = 0;
  for (const auto& m : models_) {
    offsets_.push_back(off);
    off += m->num_params();
  }
  weight_offset_ = off;
  dim_ = off + models_.size() + 1;  // + weights + log_sigma
}

double CurveEnsemble::eval(double x, std::span<const double> theta) const noexcept {
  double weight_sum = 0.0;
  for (std::size_t k = 0; k < models_.size(); ++k) {
    const double w = theta[weight_offset_ + k];
    if (w > 0.0) weight_sum += w;
  }
  if (weight_sum <= 0.0) return std::nan("");
  double y = 0.0;
  for (std::size_t k = 0; k < models_.size(); ++k) {
    const double w = theta[weight_offset_ + k];
    if (w <= 0.0) continue;
    const double fk = models_[k]->eval(
        x, theta.subspan(offsets_[k], models_[k]->num_params()));
    if (!std::isfinite(fk)) return std::nan("");
    y += (w / weight_sum) * fk;
  }
  return y;
}

double CurveEnsemble::log_prior(std::span<const double> theta,
                                std::span<const double> ys) const noexcept {
  if (theta.size() != dim_) return kNegInf;
  for (std::size_t k = 0; k < models_.size(); ++k) {
    if (!models_[k]->in_bounds(theta.subspan(offsets_[k], models_[k]->num_params()))) {
      return kNegInf;
    }
  }
  double weight_sum = 0.0;
  for (std::size_t k = 0; k < models_.size(); ++k) {
    const double w = theta[weight_offset_ + k];
    if (w < 0.0 || w > 1.0) return kNegInf;
    weight_sum += w;
  }
  if (weight_sum <= 1e-12) return kNegInf;
  const double log_sigma = theta[sigma_offset()];
  if (log_sigma < prior_.log_sigma_lo || log_sigma > prior_.log_sigma_hi) return kNegInf;

  // Curve sanity at observed epochs and at the horizon.
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double f = eval(static_cast<double>(i + 1), theta);
    if (!std::isfinite(f) || f < prior_.y_lo || f > prior_.y_hi) return kNegInf;
  }
  const double f_end = eval(horizon_, theta);
  if (!std::isfinite(f_end) || f_end < prior_.y_lo || f_end > prior_.y_hi) return kNegInf;
  if (prior_.require_non_collapsing && !ys.empty()) {
    if (f_end < ys.back() - prior_.max_decrease) return kNegInf;
  }
  return 0.0;
}

double CurveEnsemble::log_likelihood(std::span<const double> theta,
                                     std::span<const double> ys) const noexcept {
  const double log_sigma = theta[sigma_offset()];
  const double sigma = std::exp(log_sigma);
  const double inv_var = 1.0 / (sigma * sigma);
  double ll = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double f = eval(static_cast<double>(i + 1), theta);
    if (!std::isfinite(f)) return kNegInf;
    const double r = ys[i] - f;
    ll += -0.5 * (r * r * inv_var + kLog2Pi) - log_sigma;
  }
  return ll;
}

double CurveEnsemble::log_posterior(std::span<const double> theta,
                                    std::span<const double> ys) const noexcept {
  const double lp = log_prior(theta, ys);
  if (lp == kNegInf) return kNegInf;
  return lp + log_likelihood(theta, ys);
}

std::vector<double> CurveEnsemble::initial_theta(std::span<const double> ys) const {
  std::vector<double> theta(dim_, 0.0);
  std::vector<double> mses(models_.size(), 1.0);
  double best_mse = std::numeric_limits<double>::infinity();

  for (std::size_t k = 0; k < models_.size(); ++k) {
    const auto fit = models_[k]->fit(ys);
    std::copy(fit.params.begin(), fit.params.end(), theta.begin() + offsets_[k]);
    mses[k] = std::isfinite(fit.mse) ? fit.mse : 1.0;
    best_mse = std::min(best_mse, mses[k]);
  }

  // Weights proportional to inverse MSE (regularized), normalized to max 1.
  double max_w = 0.0;
  std::vector<double> ws(models_.size());
  for (std::size_t k = 0; k < models_.size(); ++k) {
    ws[k] = 1.0 / (mses[k] + 1e-6);
    max_w = std::max(max_w, ws[k]);
  }
  for (std::size_t k = 0; k < models_.size(); ++k) {
    theta[weight_offset_ + k] = max_w > 0.0 ? ws[k] / max_w : 1.0;
  }

  double sigma = std::sqrt(std::max(best_mse, 1e-6));
  sigma = std::clamp(sigma, 2e-4, 0.4);
  theta[sigma_offset()] = std::log(sigma);
  return theta;
}

std::vector<double> CurveEnsemble::jitter(std::span<const double> center, util::Rng& rng,
                                          double scale) const {
  std::vector<double> theta(center.begin(), center.end());
  for (std::size_t k = 0; k < models_.size(); ++k) {
    const auto box = models_[k]->bounds();
    for (std::size_t d = 0; d < box.size(); ++d) {
      auto& v = theta[offsets_[k] + d];
      const double span = box[d].hi - box[d].lo;
      v += rng.normal(0.0, scale * span);
      if (v < box[d].lo || v > box[d].hi) v = rng.uniform(box[d].lo, box[d].hi);
    }
  }
  for (std::size_t k = 0; k < models_.size(); ++k) {
    auto& w = theta[weight_offset_ + k];
    w += rng.normal(0.0, scale);
    if (w < 0.0 || w > 1.0) w = rng.uniform(0.0, 1.0);
  }
  auto& ls = theta[sigma_offset()];
  ls += rng.normal(0.0, scale);
  if (ls < prior_.log_sigma_lo || ls > prior_.log_sigma_hi) {
    ls = rng.uniform(prior_.log_sigma_lo, prior_.log_sigma_hi);
  }
  return theta;
}

}  // namespace hyperdrive::curve
