#include "curve/mcmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace hyperdrive::curve {

namespace {

/// Adapter so the legacy std::function entry point shares the sampler core.
/// A reusable member vector keeps the per-proposal copy allocation-free
/// after the first call.
class FunctionLogProb final : public LogProbFn {
 public:
  explicit FunctionLogProb(const std::function<double(const std::vector<double>&)>& fn)
      : fn_(fn) {}

  [[nodiscard]] double log_prob(std::span<const double> theta) override {
    scratch_.assign(theta.begin(), theta.end());
    return fn_(scratch_);
  }

 private:
  const std::function<double(const std::vector<double>&)>& fn_;
  std::vector<double> scratch_;
};

void validate_walker_count(std::size_t nwalkers, std::size_t dim) {
  // The documented Goodman–Weare constraint: even and >= max(4, 2 * dim).
  // Fewer walkers than twice the dimension cannot span the parameter space
  // with stretch moves (the ensemble collapses onto a hyperplane).
  if (nwalkers < 4 || nwalkers < 2 * dim) {
    throw std::invalid_argument("ensemble MCMC: nwalkers must be >= max(4, 2 * dim)");
  }
  if (nwalkers % 2 != 0) {
    throw std::invalid_argument("ensemble MCMC: nwalkers must be even");
  }
}

/// Sampler core over flat row-major walker storage. The acceptance draw is
/// taken before the candidate's log-probability is evaluated (the evaluation
/// consumes no randomness, so the RNG call sequence per proposal is fixed:
/// complement index, stretch z, acceptance u). Publishing the draw first
/// lets log_prob_cutoff reject hopeless candidates mid-evaluation without
/// changing any accept/reject decision. The step loop does no allocation:
/// candidate and sample arenas are sized up front and reused.
McmcResult run_impl(LogProbFn& fn, std::vector<double> walkers, std::size_t dim,
                    const McmcOptions& opts, util::Rng& rng) {
  if (dim == 0) throw std::invalid_argument("ensemble MCMC: zero-dimensional walkers");
  if (walkers.size() % dim != 0) {
    throw std::invalid_argument("walker dimension mismatch");
  }
  const std::size_t nwalkers = walkers.size() / dim;
  validate_walker_count(nwalkers, dim);

  std::vector<double> logp(nwalkers);
  fn.log_prob_batch(walkers, nwalkers, logp);
  std::size_t best = 0;
  double best_lp = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < nwalkers; ++i) {
    if (logp[i] > best_lp) {
      best_lp = logp[i];
      best = i;
    }
  }
  if (!std::isfinite(best_lp)) {
    throw std::runtime_error("ensemble MCMC: no walker starts inside the support");
  }
  // Nudge invalid starts onto the best valid one (they will diffuse apart).
  for (std::size_t i = 0; i < nwalkers; ++i) {
    if (!std::isfinite(logp[i])) {
      std::memcpy(walkers.data() + i * dim, walkers.data() + best * dim,
                  dim * sizeof(double));
      logp[i] = best_lp;
    }
  }

  McmcResult result;
  result.dim = dim;
  const std::size_t kept_steps =
      opts.nsamples > opts.burn_in ? (opts.nsamples - opts.burn_in) / std::max<std::size_t>(1, opts.thin)
                                   : 0;
  result.samples.reserve(kept_steps * nwalkers * dim);

  std::size_t accepted = 0, proposed = 0;
  std::vector<double> candidate(dim);
  const double a = opts.stretch_a;

  for (std::size_t step = 0; step < opts.nsamples; ++step) {
    for (std::size_t i = 0; i < nwalkers; ++i) {
      // Pick a random complementary walker j != i.
      std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nwalkers) - 2));
      if (j >= i) ++j;

      // Stretch move: z ~ g(z) with g(z) ∝ 1/sqrt(z) on [1/a, a].
      const double u = rng.uniform();
      const double sqrt_a = std::sqrt(a);
      const double z_sqrt = (1.0 / sqrt_a) + u * (sqrt_a - 1.0 / sqrt_a);
      const double z = z_sqrt * z_sqrt;

      const double* wi = walkers.data() + i * dim;
      const double* wj = walkers.data() + j * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        candidate[d] = wj[d] + z * (wi[d] - wj[d]);
      }
      // Acceptance: min(1, z^(dim-1) * pi(cand)/pi(cur)). The draw happens
      // before the evaluation so the cutoff can prune candidates that cannot
      // pass it; the decision below is unchanged for any pruned candidate
      // (log_prob_cutoff's contract).
      AcceptanceCutoff cutoff;
      cutoff.a_term = (static_cast<double>(dim) - 1.0) * std::log(z);
      cutoff.logp_cur = logp[i];
      cutoff.log_u = std::log(rng.uniform() + 1e-300);
      const double cand_lp = fn.log_prob_cutoff(candidate, cutoff);
      ++proposed;
      const double log_ratio = cutoff.a_term + cand_lp - logp[i];
      if (std::isfinite(cand_lp) && cutoff.log_u < log_ratio) {
        std::memcpy(walkers.data() + i * dim, candidate.data(), dim * sizeof(double));
        logp[i] = cand_lp;
        ++accepted;
      }
    }
    if (step >= opts.burn_in && (step - opts.burn_in) % std::max<std::size_t>(1, opts.thin) == 0) {
      result.samples.insert(result.samples.end(), walkers.begin(), walkers.end());
    }
  }

  result.acceptance_rate =
      proposed > 0 ? static_cast<double>(accepted) / static_cast<double>(proposed) : 0.0;
  return result;
}

}  // namespace

McmcResult run_ensemble_mcmc(
    const std::function<double(const std::vector<double>&)>& log_prob,
    std::vector<std::vector<double>> walkers, const McmcOptions& opts, util::Rng& rng) {
  if (walkers.empty()) throw std::invalid_argument("ensemble MCMC: no walkers");
  const std::size_t dim = walkers.front().size();
  std::vector<double> flat;
  flat.reserve(walkers.size() * dim);
  for (const auto& w : walkers) {
    if (w.size() != dim) throw std::invalid_argument("walker dimension mismatch");
    flat.insert(flat.end(), w.begin(), w.end());
  }
  FunctionLogProb fn(log_prob);
  return run_impl(fn, std::move(flat), dim, opts, rng);
}

McmcResult run_ensemble_mcmc(LogProbFn& log_prob, std::vector<double> initial_walkers,
                             std::size_t dim, const McmcOptions& opts, util::Rng& rng) {
  return run_impl(log_prob, std::move(initial_walkers), dim, opts, rng);
}

}  // namespace hyperdrive::curve
