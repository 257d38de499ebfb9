// The 11 parametric learning-curve families used by the probabilistic
// learning-curve model of Domhan, Springenberg & Hutter (IJCAI'15) — the
// model HyperDrive's POP policy builds on (§3.1.1, §5.2 of the paper).
//
// Each family maps a (1-based) epoch index x > 0 to a predicted performance
// value y(x) given a small parameter vector theta. The families are:
//
//   pow3            c - a * x^(-alpha)
//   pow4            c - (a*x + b)^(-alpha)
//   log_log_linear  log(a * log(x) + b)
//   log_power       a / (1 + (x / exp(b))^c)
//   vapor_pressure  exp(a + b/x + c * log(x))
//   hill3           ymax * x^eta / (kappa^eta + x^eta)
//   mmf             alpha - (alpha - beta) / (1 + (kappa*x)^delta)
//   exp4            c - exp(-a * x^alpha + b)
//   janoschek       alpha - (alpha - beta) * exp(-kappa * x^delta)
//   weibull         alpha - (alpha - beta) * exp(-(kappa*x)^delta)
//   ilog2           c - a / log(x + 1)
//
// All performance values are assumed normalized to [0, 1] (accuracy, or
// min-max scaled reward per Eq. 4 of the paper).
//
// Every evaluator in curve/ — ParametricModel::eval, CurveEnsemble::eval and
// the fused BatchEvaluator kernels — calls family_eval below, so each formula
// exists exactly once. The family table (name, bounds, initial guess) lives
// in parametric_models.cpp, one row per Family in enum order.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace hyperdrive::curve {

/// The families, in canonical order (the order of all_model_names()).
enum class Family : unsigned char {
  kPow3,
  kPow4,
  kLogLogLinear,
  kLogPower,
  kVaporPressure,
  kHill3,
  kMmf,
  kExp4,
  kJanoschek,
  kWeibull,
  kIlog2,
};

/// The per-theta constant a family's formula reads, computed once per
/// parameter vector: exp(b) for log_power, kappa^eta for hill3, 0 otherwise.
/// `t` is anything indexable by parameter position.
template <class Params>
[[nodiscard]] inline double family_hoist(Family family, const Params& t) noexcept {
  if (family == Family::kLogPower) return std::exp(t[1]);
  if (family == Family::kHill3) return std::pow(t[2], t[1]);
  return 0.0;
}

/// y(x) for `family` with parameters `t`, given hoist = family_hoist(family,
/// t), lx = log(x) (read only by log_log_linear and vapor_pressure) and
/// lxp1 = log(x + 1) (read only by ilog2). Callers that evaluate one point
/// may pass 0 for the values the family does not read. May return non-finite
/// values for pathological parameters; callers must reject those.
template <class Params>
[[nodiscard]] inline double family_eval(Family family, const Params& t, double hoist,
                                        double x, double lx, double lxp1) noexcept {
  switch (family) {
    case Family::kPow3:
      return t[0] - t[1] * std::pow(x, -t[2]);
    case Family::kPow4: {
      const double base = t[1] * x + t[2];
      return base <= 0.0 ? std::nan("") : t[0] - std::pow(base, -t[3]);
    }
    case Family::kLogLogLinear: {
      const double inner = t[0] * lx + t[1];
      return inner <= 0.0 ? std::nan("") : std::log(inner);
    }
    case Family::kLogPower:
      return t[0] / (1.0 + std::pow(x / hoist, t[2]));
    case Family::kVaporPressure:
      return std::exp(t[0] + t[1] / x + t[2] * lx);
    case Family::kHill3: {
      const double xe = std::pow(x, t[1]);
      return t[0] * xe / (hoist + xe);
    }
    case Family::kMmf:
      return t[0] - (t[0] - t[1]) / (1.0 + std::pow(t[2] * x, t[3]));
    case Family::kExp4:
      return t[0] - std::exp(-t[1] * std::pow(x, t[3]) + t[2]);
    case Family::kJanoschek:
      return t[0] - (t[0] - t[1]) * std::exp(-t[2] * std::pow(x, t[3]));
    case Family::kWeibull:
      return t[0] - (t[0] - t[1]) * std::exp(-std::pow(t[2] * x, t[3]));
    case Family::kIlog2:
      return t[0] - t[1] / lxp1;
  }
  return std::nan("");
}

/// Inclusive parameter box used both as a uniform prior support and to
/// clamp optimizer proposals.
struct ParamBounds {
  double lo = 0.0;
  double hi = 1.0;
};

/// Result of a least-squares family fit.
struct FamilyFit {
  std::vector<double> params;  ///< clamped into the bounds box
  double mse = 0.0;            ///< mean squared residual; +inf if never finite
};

/// One curve family: a handle to its row of the family table.
class ParametricModel {
 public:
  explicit ParametricModel(Family family) noexcept : family_(family) {}

  [[nodiscard]] Family family() const noexcept { return family_; }
  [[nodiscard]] std::string_view name() const noexcept;
  [[nodiscard]] std::size_t num_params() const noexcept { return bounds().size(); }
  [[nodiscard]] std::span<const ParamBounds> bounds() const noexcept;

  /// Evaluate the curve at epoch x (x >= 1) with parameters theta
  /// (theta.size() == num_params()). May return non-finite values for
  /// pathological theta; callers must reject those.
  [[nodiscard]] double eval(double x, std::span<const double> theta) const noexcept;

  /// A reasonable starting point for the optimizer given the observed prefix
  /// ys (ys[i] is performance at epoch i+1), clamped into the bounds box.
  /// Deterministic.
  [[nodiscard]] std::vector<double> initial_guess(std::span<const double> ys) const;

  /// Least-squares fit to ys (ys[i] at epoch i+1): Nelder–Mead from
  /// initial_guess(ys) on the mean squared residual, with every proposal
  /// clamped into the bounds box and a non-finite curve value scoring +inf.
  /// Deterministic given ys.
  [[nodiscard]] FamilyFit fit(std::span<const double> ys) const;

  /// Draw a random parameter vector uniformly from the bounds box.
  [[nodiscard]] std::vector<double> random_params(util::Rng& rng) const;

  /// True iff theta lies inside the bounds box.
  [[nodiscard]] bool in_bounds(std::span<const double> theta) const noexcept;

 private:
  Family family_;
};

/// Construct all 11 families (the full Domhan set).
[[nodiscard]] std::vector<std::unique_ptr<ParametricModel>> make_all_models();

/// Construct a named subset (by family name); throws std::invalid_argument
/// for an unknown name. Useful for fast predictor configurations.
[[nodiscard]] std::vector<std::unique_ptr<ParametricModel>> make_models(
    const std::vector<std::string>& names);

/// Names of all 11 families in canonical order.
[[nodiscard]] const std::vector<std::string>& all_model_names();

}  // namespace hyperdrive::curve
