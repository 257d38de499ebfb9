#include "curve/parametric_models.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "curve/nelder_mead.hpp"

namespace hyperdrive::curve {

namespace {

double first_of(std::span<const double> ys) { return ys.empty() ? 0.1 : ys.front(); }
double last_of(std::span<const double> ys) { return ys.empty() ? 0.5 : ys.back(); }

/// One family: its name, parameter box and data-driven initial guess. The
/// formula is family_eval's case for the same Family.
struct FamilyRow {
  Family family;
  std::string_view name;
  std::size_t num_params;
  std::array<ParamBounds, 4> bounds;
  std::vector<double> (*guess)(std::span<const double> ys);
};

// Bounds are deliberately loose uniform boxes: they act as the prior support
// in the MCMC and as clamps in the least-squares fit.
constexpr FamilyRow kFamilies[] = {
    {Family::kPow3, "pow3", 3, {{{0.0, 1.5}, {0.0, 2.0}, {0.01, 5.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double c = last_of(ys) + 0.05;
       return {c, std::max(0.05, c - first_of(ys)), 0.5};
     }},
    {Family::kPow4, "pow4", 4, {{{0.0, 1.5}, {0.01, 10.0}, {0.01, 10.0}, {0.01, 5.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       return {last_of(ys) + 0.05, 1.0, 1.0, 0.5};
     }},
    {Family::kLogLogLinear, "log_log_linear", 2, {{{0.0, 5.0}, {1.0, 2.7}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double b = std::clamp(std::exp(first_of(ys)), 1.0, 2.7);
       const double n = std::max<double>(2.0, static_cast<double>(ys.size()));
       const double a = (std::exp(last_of(ys)) - b) / std::log(n + 1.0);
       return {std::max(0.0, a), b};
     }},
    // c < 0 for learning curves.
    {Family::kLogPower, "log_power", 3, {{{0.0, 1.5}, {-2.0, 10.0}, {-5.0, -0.01}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double n = std::max<double>(2.0, static_cast<double>(ys.size()));
       return {last_of(ys) + 0.05, std::log(n / 2.0 + 1.0), -0.7};
     }},
    {Family::kVaporPressure, "vapor_pressure", 3, {{{-5.0, 0.5}, {-5.0, 5.0}, {-0.5, 0.5}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double a = std::log(std::max(last_of(ys), 1e-3));
       const double b = std::log(std::max(first_of(ys), 1e-3)) - a;
       return {a, b, 0.0};
     }},
    {Family::kHill3, "hill3", 3, {{{0.0, 1.5}, {0.01, 5.0}, {0.01, 200.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double n = std::max<double>(2.0, static_cast<double>(ys.size()));
       return {last_of(ys) + 0.05, 1.0, n / 2.0};
     }},
    {Family::kMmf, "mmf", 4, {{{0.0, 1.5}, {0.0, 1.0}, {0.001, 10.0}, {0.01, 5.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       return {last_of(ys) + 0.05, first_of(ys), 0.05, 1.0};
     }},
    {Family::kExp4, "exp4", 4, {{{0.0, 1.5}, {0.01, 5.0}, {-5.0, 5.0}, {0.01, 2.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double c = last_of(ys) + 0.05;
       const double b = std::log(std::max(c - first_of(ys), 1e-3));
       return {c, 0.1, b, 1.0};
     }},
    {Family::kJanoschek, "janoschek", 4, {{{0.0, 1.5}, {0.0, 1.0}, {0.001, 5.0}, {0.01, 3.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       return {last_of(ys) + 0.05, first_of(ys), 0.05, 1.0};
     }},
    {Family::kWeibull, "weibull", 4, {{{0.0, 1.5}, {0.0, 1.0}, {0.001, 2.0}, {0.01, 3.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       return {last_of(ys) + 0.05, first_of(ys), 0.05, 1.0};
     }},
    {Family::kIlog2, "ilog2", 2, {{{0.0, 1.5}, {0.0, 2.0}}},
     [](std::span<const double> ys) -> std::vector<double> {
       const double c = last_of(ys) + 0.05;
       return {c, std::max(0.01, (c - first_of(ys)) * std::log(2.0))};
     }},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kFamilies); ++i) {
    if (static_cast<std::size_t>(kFamilies[i].family) != i) return false;
  }
  return std::size(kFamilies) == static_cast<std::size_t>(Family::kIlog2) + 1;
}
static_assert(rows_in_enum_order(), "kFamilies must hold one row per Family, in enum order");

const FamilyRow& row_of(Family family) {
  return kFamilies[static_cast<std::size_t>(family)];
}

}  // namespace

std::string_view ParametricModel::name() const noexcept { return row_of(family_).name; }

std::span<const ParamBounds> ParametricModel::bounds() const noexcept {
  const FamilyRow& row = row_of(family_);
  return {row.bounds.data(), row.num_params};
}

double ParametricModel::eval(double x, std::span<const double> theta) const noexcept {
  // Only the families that read log x or log(x+1) pay for computing it.
  const double* t = theta.data();
  const bool reads_log_x = family_ == Family::kLogLogLinear || family_ == Family::kVaporPressure;
  return family_eval(family_, t, family_hoist(family_, t), x, reads_log_x ? std::log(x) : 0.0,
                     family_ == Family::kIlog2 ? std::log(x + 1.0) : 0.0);
}

std::vector<double> ParametricModel::initial_guess(std::span<const double> ys) const {
  auto guess = row_of(family_).guess(ys);
  const auto box = bounds();
  for (std::size_t i = 0; i < guess.size(); ++i) {
    guess[i] = std::clamp(guess[i], box[i].lo, box[i].hi);
  }
  return guess;
}

FamilyFit ParametricModel::fit(std::span<const double> ys) const {
  const auto box = bounds();
  std::vector<double> p(box.size());
  auto objective = [&](const std::vector<double>& raw) {
    // Clamp into the bounds box so the optimizer cannot wander outside the
    // prior support.
    for (std::size_t d = 0; d < p.size(); ++d) p[d] = std::clamp(raw[d], box[d].lo, box[d].hi);
    double mse = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
      const double f = eval(static_cast<double>(i + 1), p);
      if (!std::isfinite(f)) return std::numeric_limits<double>::infinity();
      const double r = ys[i] - f;
      mse += r * r;
    }
    return mse / static_cast<double>(std::max<std::size_t>(1, ys.size()));
  };
  auto result = nelder_mead(objective, initial_guess(ys));
  // Clamp the fitted parameters the same way the objective did.
  for (std::size_t d = 0; d < result.x.size(); ++d) {
    result.x[d] = std::clamp(result.x[d], box[d].lo, box[d].hi);
  }
  return {std::move(result.x), result.fx};
}

std::vector<double> ParametricModel::random_params(util::Rng& rng) const {
  const auto box = bounds();
  std::vector<double> theta(box.size());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    theta[i] = rng.uniform(box[i].lo, box[i].hi);
  }
  return theta;
}

bool ParametricModel::in_bounds(std::span<const double> theta) const noexcept {
  const auto box = bounds();
  if (theta.size() != box.size()) return false;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    if (theta[i] < box[i].lo || theta[i] > box[i].hi) return false;
  }
  return true;
}

const std::vector<std::string>& all_model_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& row : kFamilies) out.emplace_back(row.name);
    return out;
  }();
  return names;
}

std::vector<std::unique_ptr<ParametricModel>> make_all_models() {
  return make_models(all_model_names());
}

std::vector<std::unique_ptr<ParametricModel>> make_models(
    const std::vector<std::string>& names) {
  std::vector<std::unique_ptr<ParametricModel>> models;
  models.reserve(names.size());
  for (const auto& n : names) {
    const auto* row = std::find_if(std::begin(kFamilies), std::end(kFamilies),
                                   [&n](const FamilyRow& r) { return r.name == n; });
    if (row == std::end(kFamilies)) {
      throw std::invalid_argument("unknown parametric model: " + n);
    }
    models.push_back(std::make_unique<ParametricModel>(row->family));
  }
  return models;
}

}  // namespace hyperdrive::curve
