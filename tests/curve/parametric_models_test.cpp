#include "curve/parametric_models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace hyperdrive::curve {
namespace {

// A plausible learning-curve prefix used to seed initial guesses.
std::vector<double> sample_prefix() {
  return {0.12, 0.20, 0.28, 0.34, 0.40, 0.45, 0.48, 0.51, 0.53, 0.55};
}

TEST(ModelRegistryTest, AllElevenFamiliesPresent) {
  EXPECT_EQ(all_model_names().size(), 11u);
  const auto models = make_all_models();
  EXPECT_EQ(models.size(), 11u);
}

TEST(ModelRegistryTest, UnknownNameThrows) {
  EXPECT_THROW(make_models({"pow3", "not_a_model"}), std::invalid_argument);
}

TEST(ModelRegistryTest, SubsetSelection) {
  const auto models = make_models({"weibull", "janoschek"});
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0]->name(), "weibull");
  EXPECT_EQ(models[1]->name(), "janoschek");
}

/// Parameterized over all 11 families: shared structural properties.
class FamilyTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ParametricModel> model_ = std::move(make_models({GetParam()})[0]);
};

TEST_P(FamilyTest, BoundsMatchParameterCount) {
  EXPECT_EQ(model_->bounds().size(), model_->num_params());
  EXPECT_GT(model_->num_params(), 0u);
  for (const auto& b : model_->bounds()) EXPECT_LT(b.lo, b.hi);
}

TEST_P(FamilyTest, InitialGuessIsInBounds) {
  const auto guess = model_->initial_guess(sample_prefix());
  ASSERT_EQ(guess.size(), model_->num_params());
  EXPECT_TRUE(model_->in_bounds(guess));
}

TEST_P(FamilyTest, InitialGuessEvaluatesFinite) {
  const auto guess = model_->initial_guess(sample_prefix());
  for (double x : {1.0, 2.0, 10.0, 60.0, 120.0}) {
    const double y = model_->eval(x, guess);
    EXPECT_TRUE(std::isfinite(y)) << model_->name() << " at x=" << x;
  }
}

TEST_P(FamilyTest, InitialGuessRoughlyIncreasing) {
  // Learning-curve families seeded from an increasing prefix should predict
  // later-epoch performance at or above the very first epoch's.
  const auto guess = model_->initial_guess(sample_prefix());
  const double early = model_->eval(1.0, guess);
  const double late = model_->eval(120.0, guess);
  EXPECT_GE(late, early - 0.05) << model_->name();
}

TEST_P(FamilyTest, RandomParamsStayInBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(model_->in_bounds(model_->random_params(rng)));
  }
}

TEST_P(FamilyTest, InBoundsRejectsOutliersAndWrongArity) {
  auto theta = model_->initial_guess(sample_prefix());
  theta[0] = model_->bounds()[0].hi + 1.0;
  EXPECT_FALSE(model_->in_bounds(theta));
  theta.pop_back();
  EXPECT_FALSE(model_->in_bounds(theta));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyTest,
                         ::testing::ValuesIn(all_model_names()),
                         [](const auto& info) { return info.param; });

TEST(FamilySemanticsTest, Pow3ApproachesAsymptote) {
  const auto models = make_models({"pow3"});
  const std::vector<double> theta = {0.8, 0.7, 0.5};  // c - a x^-alpha
  EXPECT_NEAR(models[0]->eval(1e9, theta), 0.8, 1e-3);
  EXPECT_LT(models[0]->eval(1.0, theta), models[0]->eval(100.0, theta));
}

TEST(FamilySemanticsTest, WeibullInterpolatesBetaToAlpha) {
  const auto models = make_models({"weibull"});
  const std::vector<double> theta = {0.8, 0.1, 0.05, 1.0};
  EXPECT_NEAR(models[0]->eval(1e-9, theta), 0.1, 1e-3);
  EXPECT_NEAR(models[0]->eval(1e6, theta), 0.8, 1e-3);
}

TEST(FamilySemanticsTest, VaporPressureMatchesClosedForm) {
  const auto models = make_models({"vapor_pressure"});
  const std::vector<double> theta = {-0.5, -1.0, 0.1};
  const double x = 7.0;
  EXPECT_NEAR(models[0]->eval(x, theta),
              std::exp(-0.5 - 1.0 / x + 0.1 * std::log(x)), 1e-12);
}

TEST(FamilySemanticsTest, Pow4RejectsNegativeBase) {
  const auto models = make_models({"pow4"});
  // a*x + b <= 0 must yield NaN, not a crash.
  const std::vector<double> theta = {0.8, 0.01, 0.01, 0.5};
  EXPECT_TRUE(std::isfinite(models[0]->eval(1.0, theta)));
}

/// The header's 11 formulas, written out independently of the family table
/// in the operand order the library uses: the closed-form oracle that
/// ParametricModel::eval (and through it every fused kernel) must match bit
/// for bit.
double closed_form(const std::string& family, double x, const std::vector<double>& t) {
  if (family == "pow3") return t[0] - t[1] * std::pow(x, -t[2]);
  if (family == "pow4") {
    const double base = t[1] * x + t[2];
    if (base <= 0.0) return std::nan("");
    return t[0] - std::pow(base, -t[3]);
  }
  if (family == "log_log_linear") {
    const double inner = t[0] * std::log(x) + t[1];
    if (inner <= 0.0) return std::nan("");
    return std::log(inner);
  }
  if (family == "log_power") return t[0] / (1.0 + std::pow(x / std::exp(t[1]), t[2]));
  if (family == "vapor_pressure") return std::exp(t[0] + t[1] / x + t[2] * std::log(x));
  if (family == "hill3") {
    const double xe = std::pow(x, t[1]);
    return t[0] * xe / (std::pow(t[2], t[1]) + xe);
  }
  if (family == "mmf") return t[0] - (t[0] - t[1]) / (1.0 + std::pow(t[2] * x, t[3]));
  if (family == "exp4") return t[0] - std::exp(-t[1] * std::pow(x, t[3]) + t[2]);
  if (family == "janoschek") return t[0] - (t[0] - t[1]) * std::exp(-t[2] * std::pow(x, t[3]));
  if (family == "weibull") return t[0] - (t[0] - t[1]) * std::exp(-std::pow(t[2] * x, t[3]));
  if (family == "ilog2") return t[0] - t[1] / std::log(x + 1.0);
  ADD_FAILURE() << "no closed form for " << family;
  return 0.0;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(FamilyOracleTest, EveryFormulaMatchesClosedFormBitForBit) {
  const std::vector<double> xs = {1.0, 2.0, 3.5, 10.0, 40.0, 120.0, 1e4};
  for (const auto& name : all_model_names()) {
    const auto model = std::move(make_models({name})[0]);
    const auto box = model->bounds();
    util::Rng rng(0x0AC1E);
    // The box corners and centre, in-box random draws, and draws from a box
    // three times as wide (negative bases, overflow, NaN-producing pows).
    std::vector<double> lo, hi, mid;
    for (const auto& b : box) {
      lo.push_back(b.lo);
      hi.push_back(b.hi);
      mid.push_back(0.5 * (b.lo + b.hi));
    }
    std::vector<std::vector<double>> thetas = {lo, hi, mid};
    for (int i = 0; i < 40; ++i) thetas.push_back(model->random_params(rng));
    for (int i = 0; i < 40; ++i) {
      std::vector<double> wide;
      for (const auto& b : box) {
        const double span = b.hi - b.lo;
        wide.push_back(rng.uniform(b.lo - span, b.hi + span));
      }
      thetas.push_back(std::move(wide));
    }
    // The explicit NaN branches: a*x + b <= 0 for pow4 and
    // a*log(x) + b <= 0 for log_log_linear.
    if (name == "pow4") thetas.push_back({0.8, -1.0, 0.5, 0.5});
    if (name == "log_log_linear") thetas.push_back({-1.0, 0.5});

    std::size_t family_nans = 0;
    for (const auto& theta : thetas) {
      for (const double x : xs) {
        const double got = model->eval(x, theta);
        const double want = closed_form(name, x, theta);
        EXPECT_EQ(bits_of(got), bits_of(want))
            << name << " at x=" << x << ": " << got << " vs " << want;
        if (std::isnan(want)) ++family_nans;
      }
    }
    if (name == "pow4" || name == "log_log_linear") {
      EXPECT_GT(family_nans, 0u) << name << ": the grid must reach the NaN branch";
    }
  }
}

}  // namespace
}  // namespace hyperdrive::curve
