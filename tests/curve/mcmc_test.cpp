#include "curve/mcmc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/stats.hpp"

namespace hyperdrive::curve {
namespace {

McmcOptions quick_options() {
  McmcOptions opts;
  opts.nwalkers = 32;
  opts.nsamples = 400;
  opts.burn_in = 100;
  opts.thin = 2;
  return opts;
}

TEST(EnsembleMcmcTest, Samples1dGaussian) {
  auto log_prob = [](const std::vector<double>& x) { return -0.5 * x[0] * x[0]; };
  util::Rng rng(1);
  std::vector<std::vector<double>> walkers;
  for (int i = 0; i < 32; ++i) walkers.push_back({rng.normal(0.0, 0.5)});
  const auto result = run_ensemble_mcmc(log_prob, walkers, quick_options(), rng);

  std::vector<double> xs;
  for (std::size_t i = 0; i < result.num_samples(); ++i) xs.push_back(result.sample(i)[0]);
  ASSERT_GT(xs.size(), 1000u);
  EXPECT_NEAR(util::mean(xs), 0.0, 0.1);
  EXPECT_NEAR(util::stddev(xs), 1.0, 0.15);
}

TEST(EnsembleMcmcTest, Samples2dGaussianWithDifferentScales) {
  auto log_prob = [](const std::vector<double>& x) {
    return -0.5 * (x[0] * x[0] + (x[1] - 3.0) * (x[1] - 3.0) / (0.5 * 0.5));
  };
  util::Rng rng(2);
  std::vector<std::vector<double>> walkers;
  for (int i = 0; i < 40; ++i) walkers.push_back({rng.normal(0, 1), rng.normal(3, 1)});
  McmcOptions opts = quick_options();
  opts.nwalkers = 40;
  opts.nsamples = 600;
  const auto result = run_ensemble_mcmc(log_prob, walkers, opts, rng);

  std::vector<double> x0s, x1s;
  for (std::size_t i = 0; i < result.num_samples(); ++i) {
    x0s.push_back(result.sample(i)[0]);
    x1s.push_back(result.sample(i)[1]);
  }
  EXPECT_NEAR(util::mean(x0s), 0.0, 0.15);
  EXPECT_NEAR(util::mean(x1s), 3.0, 0.1);
  EXPECT_NEAR(util::stddev(x1s), 0.5, 0.12);
}

TEST(EnsembleMcmcTest, AcceptanceRateReasonable) {
  auto log_prob = [](const std::vector<double>& x) { return -0.5 * x[0] * x[0]; };
  util::Rng rng(3);
  std::vector<std::vector<double>> walkers;
  for (int i = 0; i < 32; ++i) walkers.push_back({rng.normal(0.0, 1.0)});
  const auto result = run_ensemble_mcmc(log_prob, walkers, quick_options(), rng);
  EXPECT_GT(result.acceptance_rate, 0.2);
  EXPECT_LT(result.acceptance_rate, 0.95);
}

TEST(EnsembleMcmcTest, RespectsHardSupportBoundary) {
  // Uniform on [0, 1]: all samples must stay inside.
  auto log_prob = [](const std::vector<double>& x) {
    if (x[0] < 0.0 || x[0] > 1.0) return -std::numeric_limits<double>::infinity();
    return 0.0;
  };
  util::Rng rng(4);
  std::vector<std::vector<double>> walkers;
  for (int i = 0; i < 32; ++i) walkers.push_back({rng.uniform(0.3, 0.7)});
  const auto result = run_ensemble_mcmc(log_prob, walkers, quick_options(), rng);
  for (const double x : result.samples) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
  // And it should actually spread over the support.
  EXPECT_LT(util::min_of(result.samples), 0.15);
  EXPECT_GT(util::max_of(result.samples), 0.85);
}

TEST(EnsembleMcmcTest, InvalidStartsAreNudgedOntoValidOne) {
  auto log_prob = [](const std::vector<double>& x) {
    if (x[0] < 0.0) return -std::numeric_limits<double>::infinity();
    return -x[0];
  };
  util::Rng rng(5);
  std::vector<std::vector<double>> walkers;
  walkers.push_back({0.5});  // the only valid start
  for (int i = 1; i < 16; ++i) walkers.push_back({-1.0});
  const auto result = run_ensemble_mcmc(log_prob, walkers, quick_options(), rng);
  EXPECT_FALSE(result.samples.empty());
  for (const double x : result.samples) EXPECT_GE(x, 0.0);
}

TEST(EnsembleMcmcTest, ThrowsWhenNoValidStart) {
  auto log_prob = [](const std::vector<double>&) {
    return -std::numeric_limits<double>::infinity();
  };
  util::Rng rng(6);
  std::vector<std::vector<double>> walkers(8, std::vector<double>{0.0});
  EXPECT_THROW(run_ensemble_mcmc(log_prob, walkers, quick_options(), rng),
               std::runtime_error);
}

TEST(EnsembleMcmcTest, ValidatesWalkerSetup) {
  auto log_prob = [](const std::vector<double>&) { return 0.0; };
  util::Rng rng(7);
  std::vector<std::vector<double>> too_few(2, std::vector<double>{0.0});
  EXPECT_THROW(run_ensemble_mcmc(log_prob, too_few, quick_options(), rng),
               std::invalid_argument);
  std::vector<std::vector<double>> ragged = {{0.0}, {0.0}, {0.0, 1.0}, {0.0}};
  EXPECT_THROW(run_ensemble_mcmc(log_prob, ragged, quick_options(), rng),
               std::invalid_argument);
}

TEST(EnsembleMcmcTest, RejectsOddWalkerCount) {
  // The documented Goodman–Weare constraint: even and >= max(4, 2 * dim).
  auto log_prob = [](const std::vector<double>&) { return 0.0; };
  util::Rng rng(7);
  std::vector<std::vector<double>> odd(5, std::vector<double>{0.0});
  EXPECT_THROW(run_ensemble_mcmc(log_prob, odd, quick_options(), rng),
               std::invalid_argument);
}

TEST(EnsembleMcmcTest, RejectsFewerWalkersThanTwiceDim) {
  // 4 walkers are fine in 1-2 dims but cannot span a 3-dim space with
  // stretch moves (the mcmc.hpp contract the old code under-enforced).
  auto log_prob = [](const std::vector<double>&) { return 0.0; };
  util::Rng rng(7);
  std::vector<std::vector<double>> narrow(4, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_THROW(run_ensemble_mcmc(log_prob, narrow, quick_options(), rng),
               std::invalid_argument);
  // 6 walkers satisfy the constraint at dim 3.
  std::vector<std::vector<double>> enough(6, std::vector<double>{0.0, 0.0, 0.0});
  McmcOptions opts = quick_options();
  opts.nsamples = 20;
  opts.burn_in = 5;
  EXPECT_NO_THROW((void)run_ensemble_mcmc(log_prob, enough, opts, rng));
}

TEST(EnsembleMcmcTest, SampleCountMatchesSchedule) {
  auto log_prob = [](const std::vector<double>& x) { return -0.5 * x[0] * x[0]; };
  util::Rng rng(8);
  std::vector<std::vector<double>> walkers(16, std::vector<double>{0.0});
  for (auto& w : walkers) w[0] = rng.normal(0.0, 1.0);
  McmcOptions opts;
  opts.nwalkers = 16;
  opts.nsamples = 100;
  opts.burn_in = 40;
  opts.thin = 10;
  const auto result = run_ensemble_mcmc(log_prob, walkers, opts, rng);
  // Kept steps: ceil((100-40)/10) = 6 -> 6 * 16 walkers.
  EXPECT_EQ(result.num_samples(), 6u * 16u);
  EXPECT_EQ(result.samples.size(), 6u * 16u * result.dim);
}

TEST(EnsembleMcmcTest, DeterministicGivenSeed) {
  auto log_prob = [](const std::vector<double>& x) { return -0.5 * x[0] * x[0]; };
  auto run = [&] {
    util::Rng rng(99);
    std::vector<std::vector<double>> walkers;
    for (int i = 0; i < 16; ++i) walkers.push_back({rng.normal(0.0, 1.0)});
    McmcOptions opts = quick_options();
    opts.nwalkers = 16;
    return run_ensemble_mcmc(log_prob, walkers, opts, rng);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]);
  }
}

TEST(EnsembleMcmcTest, FlatOverloadMatchesFunctionOverload) {
  // The LogProbFn overload must be draw-for-draw identical to the
  // std::function overload when the evaluators agree.
  class Gauss final : public LogProbFn {
   public:
    [[nodiscard]] double log_prob(std::span<const double> x) override {
      return -0.5 * x[0] * x[0];
    }
  };
  auto fn = [](const std::vector<double>& x) { return -0.5 * x[0] * x[0]; };

  util::Rng rng_a(17);
  std::vector<std::vector<double>> nested;
  for (int i = 0; i < 16; ++i) nested.push_back({rng_a.normal(0.0, 1.0)});
  McmcOptions opts = quick_options();
  opts.nwalkers = 16;
  const auto a = run_ensemble_mcmc(fn, nested, opts, rng_a);

  util::Rng rng_b(17);
  std::vector<double> flat;
  for (int i = 0; i < 16; ++i) flat.push_back(rng_b.normal(0.0, 1.0));
  Gauss gauss;
  const auto b = run_ensemble_mcmc(gauss, flat, 1, opts, rng_b);

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]);
  }
  EXPECT_EQ(a.acceptance_rate, b.acceptance_rate);
}

}  // namespace
}  // namespace hyperdrive::curve
