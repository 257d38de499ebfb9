#include "core/experiment_runner.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyperdrive::core {

std::string_view to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::Default: return "default";
    case PolicyKind::Bandit: return "bandit";
    case PolicyKind::EarlyTerm: return "earlyterm";
    case PolicyKind::Pop: return "pop";
  }
  return "?";
}

std::unique_ptr<SchedulingPolicy> make_policy(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::Default:
      return std::make_unique<DefaultPolicy>();
    case PolicyKind::Bandit:
      return std::make_unique<BanditPolicy>(spec.bandit);
    case PolicyKind::EarlyTerm:
      return std::make_unique<EarlyTermPolicy>(spec.earlyterm);
    case PolicyKind::Pop:
      return std::make_unique<PopPolicy>(spec.pop);
  }
  throw std::invalid_argument("unknown policy kind");
}

std::shared_ptr<const curve::CurvePredictor> make_default_predictor(std::uint64_t seed,
                                                                    obs::Scope scope) {
  curve::PredictorConfig config;
  config.lsq_samples = 200;
  config.seed = seed;
  // Memoize: policies re-consult the posterior for the same (history,
  // horizon) within a boundary round (§5.2 node-agent-side caching).
  return curve::with_cache(curve::make_lsq_predictor(std::move(config)),
                           curve::CachingOptions{512}, std::move(scope));
}

ExperimentResult run_experiment(const workload::Trace& trace, const PolicySpec& spec,
                                const RunnerOptions& options) {
  const auto policy = make_policy(spec);
  return run_experiment(trace, *policy, options);
}

ExperimentResult run_experiment(const workload::Trace& trace, SchedulingPolicy& policy,
                                const RunnerOptions& options) {
  if (options.substrate == Substrate::TraceReplay) {
    sim::ReplayOptions replay;
    replay.machines = options.machines;
    replay.max_experiment_time = options.max_experiment_time;
    replay.stop_on_target = options.stop_on_target;
    replay.stop_criterion = options.stop_criterion;
    replay.explore = options.explore;
    return sim::replay_experiment(trace, policy, replay);
  }
  cluster::ClusterOptions copts;
  copts.machines = options.machines;
  copts.max_experiment_time = options.max_experiment_time;
  copts.stop_on_target = options.stop_on_target;
  copts.stop_criterion = options.stop_criterion;
  copts.seed = options.seed;
  copts.epoch_jitter_sigma = options.epoch_jitter_sigma;
  copts.overheads = options.overheads;
  copts.fault_plan = options.fault_plan;
  copts.health = options.health;
  copts.decision_latency = options.decision_latency;
  copts.overlap_decisions = options.overlap_decisions;
  copts.obs = options.obs;
  copts.explore = options.explore;
  return cluster::run_cluster_experiment(trace, policy, copts);
}

AdaptiveSearchResult run_adaptive_search(const workload::WorkloadModel& model,
                                         HyperparameterGenerator& generator,
                                         const PolicySpec& spec,
                                         const RunnerOptions& options, std::size_t rounds,
                                         std::size_t configs_per_round,
                                         std::uint64_t experiment_seed) {
  AdaptiveSearchResult out;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto trace = trace_from_generator(model, generator, configs_per_round,
                                            experiment_seed ^ round,
                                            /*report_feedback=*/false);
    auto result = run_experiment(trace, spec, options);

    // Close the loop (§4.2 ➁): report what the scheduler actually observed.
    // Jobs killed early report their best-so-far — exactly the signal the
    // paper's reportFinalPerformance carries.
    for (const auto& js : result.job_stats) {
      if (js.epochs_completed > 0) {
        generator.report_final_performance(js.job_id, js.best_perf);
      }
    }
    out.best_perf = std::max(out.best_perf, result.best_perf);
    out.total_time += result.total_time;
    out.reached_target = out.reached_target || result.reached_target;
    out.rounds.push_back(std::move(result));
    if (out.reached_target) break;
  }
  return out;
}

workload::Trace trace_from_generator(const workload::WorkloadModel& model,
                                     HyperparameterGenerator& generator,
                                     std::size_t num_configs,
                                     std::uint64_t experiment_seed, bool report_feedback) {
  workload::Trace trace;
  trace.workload_name = std::string(model.name());
  trace.target_performance = model.target_performance();
  trace.kill_threshold = model.kill_threshold();
  trace.evaluation_boundary = model.evaluation_boundary();
  trace.max_epochs = model.max_epochs();

  trace.jobs.reserve(num_configs);
  for (std::size_t i = 0; i < num_configs; ++i) {
    auto [job_id, config] = generator.create_job();
    workload::TraceJob job;
    job.job_id = job_id;
    job.config = std::move(config);
    job.curve = model.realize(job.config, experiment_seed);
    if (report_feedback) {
      generator.report_final_performance(job_id, job.curve.final_perf());
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

}  // namespace hyperdrive::core
