// Experiment Runner (§4.2 ➀): the client-side entry point. Specifies the
// SAP (with its parameters), the hyperparameter-generation technique, the
// workload, and the number of machines, then runs the experiment on one of
// the two substrates and returns the collected result.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "core/experiment_result.hpp"
#include "core/generators/hyperparameter_generator.hpp"
#include "core/policies/bandit_policy.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policies/earlyterm_policy.hpp"
#include "core/policies/pop_policy.hpp"
#include "curve/caching_predictor.hpp"
#include "curve/predictor.hpp"
#include "sim/trace_replay.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::core {

enum class PolicyKind { Default, Bandit, EarlyTerm, Pop };

[[nodiscard]] std::string_view to_string(PolicyKind kind) noexcept;

/// Everything needed to instantiate one of the four evaluated policies.
struct PolicySpec {
  PolicyKind kind = PolicyKind::Default;
  BanditConfig bandit;
  EarlyTermConfig earlyterm;
  PopConfig pop;
};

/// Build a fresh policy instance. For EarlyTerm/POP a predictor must be set
/// in the spec; `make_default_predictor` below provides the standard one.
[[nodiscard]] std::unique_ptr<SchedulingPolicy> make_policy(const PolicySpec& spec);

/// The predictor every policy-building path uses: the fast LSQ-bootstrap
/// predictor (200 bootstrap curves, all 11 families) seeded with `seed`,
/// memoized by a 512-entry CachingPredictor. The full-MCMC predictor is
/// available via curve::make_mcmc_predictor and is exercised by the
/// predictor benches (§5.2). Pass a scope to observe fit/cache-hit activity
/// (untimed events + predictor.* counters).
[[nodiscard]] std::shared_ptr<const curve::CurvePredictor> make_default_predictor(
    std::uint64_t seed, obs::Scope scope = {});

/// Which substrate executes the experiment.
enum class Substrate {
  TraceReplay,  ///< idealized simulator of §7.1 (no overheads)
  Cluster,      ///< high-fidelity cluster with overhead models (§5/§6)
};

struct RunnerOptions {
  Substrate substrate = Substrate::TraceReplay;
  std::size_t machines = 4;
  util::SimTime max_experiment_time = util::SimTime::hours(48);
  bool stop_on_target = true;
  /// Model-owner-defined global termination criterion (§9); when set it
  /// replaces the perf >= target check (stop_on_target still gates it).
  GlobalStopCriterion stop_criterion;
  /// Cluster-only fidelity knobs (ignored for TraceReplay).
  cluster::OverheadModel overheads = cluster::cifar_overhead_model();
  double epoch_jitter_sigma = 0.04;
  std::uint64_t seed = 1;
  /// Faults to inject (cluster only; default none — a perfect cluster).
  cluster::FaultPlan fault_plan;
  /// Gray-failure detection & mitigation (cluster only; DESIGN.md §7).
  cluster::HealthOptions health;
  /// Optional cost of computing a scheduling decision at evaluation
  /// boundaries (cluster only; §5.2).
  std::function<util::SimTime(JobId, std::size_t epoch, util::Rng&)> decision_latency;
  /// §5.2 overlap of training and prediction (cluster only; the blocking
  /// ablation sets this false).
  bool overlap_decisions = true;
  /// Instrumentation handle, forwarded to the cluster substrate (DESIGN.md
  /// §10). TraceReplay ignores it (the idealized simulator has no event
  /// vocabulary). Detached by default: zero overhead.
  obs::Scope obs;
  /// Exploit/explore continuation hook (PBT; DESIGN.md §13), forwarded to
  /// both substrates. When set the substrate supports
  /// SchedulerOps::clone_job; unset = cloning unsupported (the default).
  workload::ExploreFn explore;
};

/// Run one experiment of `spec` over `trace`.
[[nodiscard]] ExperimentResult run_experiment(const workload::Trace& trace,
                                              const PolicySpec& spec,
                                              const RunnerOptions& options);

/// Same, driving an already-built policy instance (what the SweepEngine and
/// the custom-policy benches use — policies are stateful, so the instance
/// must be fresh per experiment).
[[nodiscard]] ExperimentResult run_experiment(const workload::Trace& trace,
                                              SchedulingPolicy& policy,
                                              const RunnerOptions& options);

/// Build a trace by drawing `num_configs` jobs from a Hyperparameter
/// Generator and realizing them against the workload model — the ➀→➁→➄ path
/// of Fig. 5. Final performances are reported back to the generator after
/// realization so adaptive generators learn across rounds.
[[nodiscard]] workload::Trace trace_from_generator(const workload::WorkloadModel& model,
                                                   HyperparameterGenerator& generator,
                                                   std::size_t num_configs,
                                                   std::uint64_t experiment_seed,
                                                   bool report_feedback = false);

/// Multi-round adaptive search: the full Fig. 5 feedback loop. Each round
/// draws a batch from the generator, runs it under the policy, and reports
/// every explored job's observed best performance back through
/// reportFinalPerformance so adaptive generators (TPE, perturbation) focus
/// the next round. Rounds stop early once the target is reached.
struct AdaptiveSearchResult {
  std::vector<ExperimentResult> rounds;
  double best_perf = 0.0;
  bool reached_target = false;
  /// Wall-clock summed across rounds (rounds run back-to-back).
  util::SimTime total_time = util::SimTime::zero();
};

[[nodiscard]] AdaptiveSearchResult run_adaptive_search(
    const workload::WorkloadModel& model, HyperparameterGenerator& generator,
    const PolicySpec& spec, const RunnerOptions& options, std::size_t rounds,
    std::size_t configs_per_round, std::uint64_t experiment_seed);

}  // namespace hyperdrive::core
