// Affine-invariant ensemble MCMC sampler (Goodman & Weare 2010), the
// algorithm behind the `emcee` package used by the reference learning-curve
// predictor. HyperDrive runs it with nwalkers=100 and a reduced nsamples=700
// (§5.2 "Reduce total MCMC samples").
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace hyperdrive::curve {

struct McmcOptions {
  /// Walker count. Must be even and >= max(4, 2 * dim) for the stretch move
  /// to mix (the Goodman–Weare requirement); enforced by run_ensemble_mcmc.
  std::size_t nwalkers = 100;
  std::size_t nsamples = 700;   ///< steps per walker (the paper's reduced setting)
  std::size_t burn_in = 200;    ///< steps discarded from the front
  std::size_t thin = 10;        ///< keep every `thin`-th post-burn-in step
  double stretch_a = 2.0;       ///< Goodman–Weare stretch parameter
};

struct McmcResult {
  /// Flattened posterior draws, row-major: num_samples() rows of dim each.
  std::vector<double> samples;
  std::size_t dim = 0;
  double acceptance_rate = 0.0;

  [[nodiscard]] std::size_t num_samples() const noexcept {
    return dim == 0 ? 0 : samples.size() / dim;
  }
  [[nodiscard]] std::span<const double> sample(std::size_t i) const noexcept {
    return std::span<const double>(samples).subspan(i * dim, dim);
  }
};

/// The sampler's Metropolis–Hastings acceptance state for one proposal,
/// published to the evaluator *before* the log-probability is computed. The
/// proposal is accepted iff
///   log_u < (a_term + cand_lp) - logp_cur        (evaluated left-to-right)
/// which is monotone non-decreasing in cand_lp under IEEE rounding — so an
/// evaluator that can bound its result from above may prove the test false
/// mid-evaluation and return early (see LogProbFn::log_prob_cutoff).
struct AcceptanceCutoff {
  double a_term = 0.0;    ///< (dim - 1) * log(z), the stretch-move Jacobian
  double logp_cur = 0.0;  ///< current walker's log-probability (finite)
  double log_u = 0.0;     ///< log(u + 1e-300), the acceptance draw
};

/// Log-probability evaluator for the batched sampler overload. `log_prob`
/// must be a pure function of theta returning -inf outside the support; the
/// batch call must produce exactly the per-row scalar results (the default
/// implementation just loops — override it to amortize work across rows).
class LogProbFn {
 public:
  virtual ~LogProbFn() = default;

  [[nodiscard]] virtual double log_prob(std::span<const double> theta) = 0;

  /// Evaluate `rows` packed parameter vectors (row-major, equal width) and
  /// write one log-probability per row into `out`.
  virtual void log_prob_batch(std::span<const double> thetas, std::size_t rows,
                              std::span<double> out) {
    const std::size_t dim = rows == 0 ? 0 : thetas.size() / rows;
    for (std::size_t i = 0; i < rows; ++i) {
      out[i] = log_prob(thetas.subspan(i * dim, dim));
    }
  }

  /// As log_prob, but the evaluator MAY return -inf early once it can prove
  /// the acceptance test fails for every value its remaining computation
  /// could produce. The proof obligation is exact (IEEE-monotone bounds, no
  /// tolerances): the sampler's accept/reject decision must be identical to
  /// a full evaluation, which is what keeps the fast path bit-identical to
  /// the reference. The returned value is only ever compared against the
  /// cutoff — the sampler discards it on rejection. Default: full evaluation.
  [[nodiscard]] virtual double log_prob_cutoff(std::span<const double> theta,
                                               const AcceptanceCutoff& cutoff) {
    (void)cutoff;
    return log_prob(theta);
  }
};

/// Run the sampler. `log_prob` must return -inf outside the support.
/// `initial_walkers` supplies nwalkers starting positions (each of equal
/// dimension, with finite log_prob for at least one walker — non-finite
/// starts are nudged onto the best finite start).
[[nodiscard]] McmcResult run_ensemble_mcmc(
    const std::function<double(const std::vector<double>&)>& log_prob,
    std::vector<std::vector<double>> initial_walkers, const McmcOptions& opts,
    util::Rng& rng);

/// Batched overload: walkers are packed row-major (nwalkers x dim). The
/// initial walker sweep goes through log_prob_batch; proposals inside a step
/// go through log_prob_cutoff (the acceptance draw is taken before the
/// evaluation, so bound-based early rejection can skip hopeless candidates)
/// but stay scalar because the stretch move is sequential in the walker
/// index. Draw-for-draw identical to the std::function overload for an
/// evaluator whose kernels match the scalar log_prob
/// (predictor_equivalence_test).
[[nodiscard]] McmcResult run_ensemble_mcmc(LogProbFn& log_prob,
                                           std::vector<double> initial_walkers,
                                           std::size_t dim, const McmcOptions& opts,
                                           util::Rng& rng);

}  // namespace hyperdrive::curve
