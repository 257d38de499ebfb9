// sweep and fleet: single-study time-to-target experiments on the cluster
// substrate.
//
// sweep is the paper's experiment (Fig. 7 / Fig. 9 class): 100-config CIFAR-10
// and LunarLander traces under the predictor-driven policies, so it is bound
// by LSQ curve fits. fleet is the same experiment with no predictor at all: a
// 4000-config trace on 64 machines under asha, hyperband, pbt and default,
// with message faults, a node crash and a fail-slow node, so its time goes to
// cluster/sim event handling, retransmission, health monitoring and the
// snapshot/clone path.
#include "cluster/overhead_model.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/trace_tools.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

/// One study of `trace` under `policy`, admitted with the benchmark's policy
/// construction (traced or not).
StudyMix single_study_mix(const std::string& name, const std::string& policy,
                          const workload::Trace* trace, std::uint64_t seed,
                          core::StudyManagerOptions options) {
  StudyMix mix;
  core::StudySpec spec;
  spec.name = name;
  spec.policy = policy;
  spec.seed = seed;
  mix.specs = {spec};
  mix.options = std::move(options);
  mix.admit = [trace](core::StudyManager& manager, const core::StudySpec& s, Tracer* tracer) {
    manager.add_study(s, *trace, [s, tracer] {
      return make_policy(s.policy, core::PolicyParams::parse(s.policy_params), s.seed, s.tmax,
                         tracer);
    });
  };
  return mix;
}

std::string item_spec(const std::string& name, const std::string& workload,
                      const std::string& policy, std::size_t configs, std::uint64_t seed) {
  core::StudySpec spec;
  spec.name = name;
  spec.workload = workload;
  spec.policy = policy;
  spec.configs = configs;
  spec.seed = seed;
  return spec_text(spec);
}

}  // namespace

void run_sweep(const Args& args, Report& report) {
  // Instances per model per run: each is re-noised from the seed and runs
  // under both predictor-driven policies.
  constexpr std::size_t kCifar = 4;
  constexpr std::size_t kLunar = 2;
  const std::vector<std::string> policies = {"pop", "earlyterm"};

  const auto t0 = Clock::now();
  workload::CifarWorkloadModel cifar;
  workload::LunarWorkloadModel lunar;
  // The figures' fixed hyperparameter sets (Fig. 7: seed 2202 on 4 machines;
  // Fig. 9: seed 2000 on 15), re-realized with fresh training noise per seed.
  const workload::Trace cifar_base = workload::suitable_trace(cifar, 100, 2202, 4);
  const workload::Trace lunar_base = workload::suitable_trace(lunar, 100, 2000, 15);
  std::vector<workload::Trace> traces;
  traces.reserve(kCifar + kLunar);
  for (std::size_t k = 0; k < kCifar; ++k) {
    traces.push_back(workload::renoise(cifar, cifar_base, derive(args.seed, 100 + k)));
  }
  for (std::size_t k = 0; k < kLunar; ++k) {
    traces.push_back(workload::renoise(lunar, lunar_base, derive(args.seed, 200 + k)));
  }
  Workload w;
  w.trace_s = since(t0);

  for (std::size_t k = 0; k < traces.size(); ++k) {
    const bool is_cifar = k < kCifar;
    for (const auto& policy : policies) {
      Item item;
      item.label = (is_cifar ? "cifar10-" : "lunar-") + std::to_string(k) + "-" + policy;
      item.policy = policy;
      item.trace = &traces[k];
      item.options.substrate = core::Substrate::Cluster;
      item.options.machines = is_cifar ? 4 : 15;
      item.options.overheads = is_cifar ? cluster::cifar_overhead_model()
                                        : cluster::lunar_criu_overhead_model();
      item.options.max_experiment_time = util::SimTime::hours(96);
      item.options.seed = derive(args.seed, 300 + k);
      item.policy_seed = derive(args.seed, 400 + k);
      w.items.push_back(item);
      w.burst_specs.push_back(item_spec(item.label, is_cifar ? "cifar10" : "lunarlander",
                                        policy, 100, item.policy_seed));
    }
  }

  // The coordinator paths on every CIFAR-10 item, each as a one-study run.
  for (const Item& item : w.items) {
    if (item.options.machines != 4) continue;
    core::StudyManagerOptions options;
    options.machines = 4;
    options.seed = item.options.seed;
    w.mixes.push_back(
        single_study_mix(item.label, item.policy, item.trace, item.policy_seed, options));
  }
  w.crash_at_half = true;
  w.known_fault = check_mmf_fit;
  setup_done(w.setup_s);

  check_curve_accuracy(report);
  run_workload(args, report, w);
}

void run_fleet(const Args& args, Report& report) {
  constexpr std::size_t kConfigs = 4000;
  constexpr std::size_t kMachines = 64;
  const std::vector<std::string> policies = {"asha", "hyperband", "pbt", "default"};

  const auto t0 = Clock::now();
  auto cifar = std::make_shared<workload::CifarWorkloadModel>();
  // One fixed hyperparameter set, re-realized with fresh training noise per
  // seed (as the figures do), so every seed schedules the same population.
  const workload::Trace base = workload::suitable_trace(*cifar, kConfigs, 4100, kMachines);
  const workload::Trace trace = workload::renoise(*cifar, base, derive(args.seed, 1));
  Workload w;
  w.trace_s = since(t0);

  cluster::FaultPlan plan;
  plan.seed = derive(args.seed, 2);
  cluster::MessageFaultProfile faults;
  faults.drop_prob = 0.05;
  faults.duplicate_prob = 0.02;
  faults.delay_prob = 0.05;
  plan.set_uniform_message_faults(faults);
  cluster::NodeCrashEvent crash;
  crash.machine = 5;
  crash.at = util::SimTime::minutes(20);
  crash.restart_after = util::SimTime::minutes(10);
  plan.crashes.push_back(crash);
  cluster::NodeSlowdownEvent slow;
  slow.machine = 11;
  slow.factor = 4.0;
  plan.slowdowns.push_back(slow);
  cluster::HealthOptions health;
  health.enabled = true;

  for (const auto& policy : policies) {
    Item item;
    item.label = "fleet-" + policy;
    item.policy = policy;
    item.trace = &trace;
    item.options.substrate = core::Substrate::Cluster;
    item.options.machines = kMachines;
    item.options.overheads = cluster::cifar_overhead_model();
    item.options.max_experiment_time = util::SimTime::hours(96);
    item.options.seed = derive(args.seed, 3);
    item.options.fault_plan = plan;
    item.options.health = health;
    item.policy_seed = derive(args.seed, 4);
    item.explore_model = cifar;
    w.items.push_back(item);
    w.burst_specs.push_back(item_spec(item.label, "cifar10", policy, kConfigs, item.policy_seed));
  }

  // The coordinator paths on the fleet under each policy that needs no
  // explore hook (the coordinator wires PBT's only for name-resolved studies).
  core::StudyManagerOptions options;
  options.machines = kMachines;
  options.seed = derive(args.seed, 3);
  options.fault_plan = plan;
  options.health = health;
  for (const std::string policy : {"asha", "hyperband", "default"}) {
    w.mixes.push_back(
        single_study_mix("fleet-" + policy, policy, &trace, derive(args.seed, 4), options));
  }
  w.crash_at_half = true;
  setup_done(w.setup_s);
  run_workload(args, report, w);
}

}  // namespace pb
