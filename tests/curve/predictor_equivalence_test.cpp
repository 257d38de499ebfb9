// Bit-identity of the fused BatchEvaluator kernels against the scalar
// CurveEnsemble reference path (DESIGN.md §11). The MCMC predictor runs on
// the fused kernels only, so every test here demands *exact* bit equality —
// same expressions, same operand order, same NaN/inf propagation — not
// approximate agreement: kernel-level, and then sampler-level against a
// LogProbFn that wraps CurveEnsemble::log_posterior.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "curve/batch_evaluator.hpp"
#include "curve/ensemble.hpp"
#include "curve/parametric_models.hpp"
#include "curve/predictor.hpp"
#include "util/rng.hpp"

namespace hyperdrive::curve {
namespace {

/// Compare two doubles by bit pattern: distinguishes -0.0 from 0.0 and
/// treats equal infinities as equal (NaN payloads would differ, but neither
/// path may return NaN — log probabilities collapse to -inf).
void expect_bits_eq(double a, double b, const std::string& what) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

/// Deterministic noisy saturating curve, the shape of the CIFAR workload's
/// validation accuracy; varied per seed so every seed fits different data.
std::vector<double> make_history(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed * 7919 + 13);
  const double asymptote = rng.uniform(0.55, 0.9);
  const double rate = rng.uniform(0.05, 0.25);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i + 1);
    double y = asymptote * (1.0 - std::exp(-rate * x)) + rng.normal(0.0, 0.015);
    ys[i] = std::min(0.99, std::max(0.01, y));
  }
  return ys;
}

/// Draw a packed theta for `ensemble`: mostly valid (in-box parameters,
/// weights in [0,1], log_sigma in its box), with a controlled fraction of
/// adversarial vectors (out-of-box coordinates, negative/NaN weights) so the
/// -inf and poisoning paths are compared too.
std::vector<double> random_theta(const CurveEnsemble& ensemble, util::Rng& rng,
                                 bool adversarial) {
  std::vector<double> theta(ensemble.dim());
  for (std::size_t k = 0; k < ensemble.num_models(); ++k) {
    const auto p = ensemble.model(k).random_params(rng);
    std::copy(p.begin(), p.end(), theta.begin() + ensemble.param_offset(k));
  }
  for (std::size_t k = 0; k < ensemble.num_models(); ++k) {
    theta[ensemble.weight_offset() + k] = rng.uniform(0.0, 1.0);
  }
  theta[ensemble.sigma_offset()] =
      rng.uniform(ensemble.prior().log_sigma_lo, ensemble.prior().log_sigma_hi);
  if (adversarial) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(ensemble.dim()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0: theta[i] = 1e9; break;                                   // out of box
      case 1: theta[i] = -1e9; break;                                  // out of box
      case 2: theta[ensemble.weight_offset()] = std::nan(""); break;   // poison
      case 3:                                                          // all dead
        for (std::size_t k = 0; k < ensemble.num_models(); ++k) {
          theta[ensemble.weight_offset() + k] = 0.0;
        }
        break;
    }
  }
  return theta;
}

void check_family_bit_identity(const std::vector<std::string>& names, std::uint64_t seed) {
  const auto history = make_history(seed, 10 + seed % 6);
  const double horizon = 40.0;
  CurveEnsemble ensemble(make_models(names), horizon);
  BatchEvaluator eval(ensemble);
  eval.bind(history);

  util::Rng rng(seed);
  std::vector<std::vector<double>> thetas;
  thetas.push_back(ensemble.initial_theta(history));
  for (int i = 0; i < 40; ++i) {
    thetas.push_back(ensemble.jitter(thetas.front(), rng));
    thetas.push_back(random_theta(ensemble, rng, /*adversarial=*/i % 3 == 0));
  }

  // Scalar fused path vs two-pass reference.
  for (const auto& theta : thetas) {
    expect_bits_eq(eval.log_prob(theta), ensemble.log_posterior(theta, history),
                   "log_prob[" + names.front() + "]");
  }

  // SoA batch path vs the scalar fused path (and thus the reference).
  std::vector<double> flat;
  for (const auto& theta : thetas) flat.insert(flat.end(), theta.begin(), theta.end());
  std::vector<double> out(thetas.size());
  eval.log_prob_batch(flat, thetas.size(), out);
  for (std::size_t r = 0; r < thetas.size(); ++r) {
    expect_bits_eq(out[r], ensemble.log_posterior(thetas[r], history),
                   "log_prob_batch[" + names.front() + "]");
  }

  // Curve evaluation used by the posterior-predictive stage.
  for (const auto& theta : thetas) {
    for (double x : {1.0, 3.5, 12.0, horizon}) {
      const double a = eval.eval_curve(x, theta);
      const double b = ensemble.eval(x, theta);
      if (std::isnan(a) && std::isnan(b)) continue;
      expect_bits_eq(a, b, "eval_curve[" + names.front() + "]");
    }
  }
}

TEST(BatchEvaluatorTest, EveryFamilyMatchesReferenceBitForBit) {
  for (const auto& name : all_model_names()) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      check_family_bit_identity({name}, seed);
    }
  }
}

TEST(BatchEvaluatorTest, FullElevenFamilyEnsembleMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    check_family_bit_identity(all_model_names(), seed);
  }
}

TEST(BatchEvaluatorTest, RebindingToNewHistoryStaysExact) {
  // The scratch arenas are reused across bind() calls (zero steady-state
  // allocation); reuse must never leak state from the previous history.
  CurveEnsemble ensemble(make_all_models(), 40.0);
  BatchEvaluator eval(ensemble);
  util::Rng rng(77);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto history = make_history(seed, 6 + (seed * 3) % 20);
    eval.bind(history);
    for (int i = 0; i < 10; ++i) {
      const auto theta = random_theta(ensemble, rng, i % 4 == 0);
      expect_bits_eq(eval.log_prob(theta), ensemble.log_posterior(theta, history),
                     "rebind");
    }
  }
}

/// The scalar reference the fused kernels must reproduce: the two-pass
/// CurveEnsemble::log_posterior behind the sampler's evaluator interface
/// (default batch and cutoff behaviour: full evaluation per row).
class ReferenceLogProb final : public LogProbFn {
 public:
  ReferenceLogProb(const CurveEnsemble& ensemble, std::span<const double> ys)
      : ensemble_(ensemble), ys_(ys) {}

  [[nodiscard]] double log_prob(std::span<const double> theta) override {
    return ensemble_.log_posterior(theta, ys_);
  }

 private:
  const CurveEnsemble& ensemble_;
  std::span<const double> ys_;
};

/// One sampler run over `evaluator`, started the way the MCMC predictor
/// starts: the first walker at the least-squares center, the rest jittered,
/// all from an RNG seeded with `seed`.
McmcResult run_sampler(const CurveEnsemble& ensemble, std::span<const double> history,
                       LogProbFn& evaluator, std::uint64_t seed, const McmcOptions& opts) {
  util::Rng rng(seed);
  const auto center = ensemble.initial_theta(history);
  std::vector<double> walkers(center.begin(), center.end());
  for (std::size_t i = 1; i < opts.nwalkers; ++i) {
    const auto w = ensemble.jitter(center, rng);
    walkers.insert(walkers.end(), w.begin(), w.end());
  }
  return run_ensemble_mcmc(evaluator, std::move(walkers), ensemble.dim(), opts, rng);
}

McmcOptions sampler_options(std::size_t nfamilies) {
  McmcOptions opts;
  opts.nwalkers = nfamilies == 1 ? 16 : 100;
  opts.nsamples = nfamilies == 1 ? 60 : 40;
  opts.burn_in = 20;
  opts.thin = 2;
  return opts;
}

/// Sampler-level check: the same walkers and the same RNG seed through the
/// fused evaluator and through the reference must give the same accept/
/// reject decisions, hence bit-identical samples. Returns false when both
/// refuse to start (a lone family may legitimately have no walker start
/// inside its support); a throw from only one side is a failure.
bool expect_sampler_bit_identity(const std::vector<std::string>& names, std::uint64_t seed) {
  const auto history = make_history(seed, 8 + seed % 7);
  CurveEnsemble ensemble(make_models(names), 40.0);
  const auto opts = sampler_options(names.size());
  const std::string what = names.front() + " seed " + std::to_string(seed);

  BatchEvaluator fused(ensemble);
  fused.bind(history);
  ReferenceLogProb reference(ensemble, history);
  McmcResult a, b;
  bool a_threw = false, b_threw = false;
  try {
    a = run_sampler(ensemble, history, fused, seed, opts);
  } catch (const std::runtime_error&) {
    a_threw = true;
  }
  try {
    b = run_sampler(ensemble, history, reference, seed, opts);
  } catch (const std::runtime_error&) {
    b_threw = true;
  }
  EXPECT_EQ(a_threw, b_threw) << what;
  if (a_threw || b_threw) return false;
  EXPECT_EQ(a.dim, b.dim) << what;
  EXPECT_EQ(a.acceptance_rate, b.acceptance_rate) << what;
  EXPECT_EQ(a.samples.size(), b.samples.size()) << what;
  if (a.samples.size() != b.samples.size()) return true;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    expect_bits_eq(a.samples[i], b.samples[i], what);
  }
  return true;
}

TEST(BatchedPredictorTest, BitIdenticalToScalarPathPerFamilyOver30Seeds) {
  std::size_t compared = 0;
  for (const auto& name : all_model_names()) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      if (expect_sampler_bit_identity({name}, seed)) ++compared;
    }
  }
  // The throw escape hatch must not hollow the test out.
  EXPECT_GT(compared, 250u);
}

TEST(BatchedPredictorTest, BitIdenticalToScalarPathFullEnsemble) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    EXPECT_TRUE(expect_sampler_bit_identity(all_model_names(), seed)) << "seed " << seed;
  }
}

CurvePrediction run_predictor(const std::vector<std::string>& names, std::uint64_t seed) {
  PredictorConfig config;
  config.model_names = names;
  config.seed = seed;
  config.mcmc = sampler_options(names.size());
  const auto predictor = make_mcmc_predictor(config);
  const auto history = make_history(seed, 8 + seed % 7);
  const std::vector<double> future = {static_cast<double>(history.size() + 5), 40.0};
  return predictor->predict(history, future, 40.0);
}

void expect_predictions_identical(const CurvePrediction& a, const CurvePrediction& b,
                                  const std::string& what) {
  ASSERT_EQ(a.num_samples(), b.num_samples()) << what;
  ASSERT_EQ(a.epochs(), b.epochs()) << what;
  ASSERT_EQ(a.samples().size(), b.samples().size()) << what;
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    expect_bits_eq(a.samples()[i], b.samples()[i], what);
  }
}

TEST(BatchedPredictorTest, ConcurrentPredictsMatchSerial) {
  // The MCMC predictor keeps one thread_local evaluator per thread;
  // concurrent predicts through independent predictors must neither race
  // (TSan job filter includes |Batch) nor perturb determinism.
  const std::vector<std::string> names = {"pow3", "weibull", "janoschek"};
  std::vector<CurvePrediction> serial;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    serial.push_back(run_predictor(names, seed));
  }
  std::vector<CurvePrediction> parallel(4);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { parallel[t] = run_predictor(names, t + 1); });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    expect_predictions_identical(parallel[t], serial[t], "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace hyperdrive::curve
