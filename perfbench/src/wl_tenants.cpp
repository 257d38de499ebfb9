// tenants: the ext_elastic tenant mix through the multi-study coordinator —
// an urgent deadline POP study on premium spot nodes, a batch POP study and a
// quick default study, on 8 x $1 standard plus 4 x $3 spot nodes, under cost
// arbitration with the budget autoscaler and a spot preemption at 60 min.
// Each instance runs plain, checkpointed with a coordinator crash at 90 min,
// and resumed from that run's frames on disk. It is the only workload that
// goes through core/study arbitration, the autoscaler, the checkpoint codec
// and store, and replay.
#include <stdexcept>

#include "workload/cifar_model.hpp"
#include "workload/trace_tools.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr double kQuickTarget = 0.35;
/// Seed of the pool of tenant-mix instances.
constexpr std::uint64_t kInstancePool = 1;

struct MixTraces {
  workload::Trace urgent;
  workload::Trace batch;
  workload::Trace quick;
};

cluster::NodeCatalog tenant_catalog() {
  cluster::NodeCatalog catalog;
  catalog.add({"standard", 8, 1.0, 1.0, false});
  catalog.add({"premium", 4, 3.0, 1.0, true});
  return catalog;
}

core::StudyManagerOptions tenant_options(std::uint64_t seed) {
  core::StudyManagerOptions options;
  options.catalog = tenant_catalog();
  options.budget_usd = 120.0;
  options.arbitration = core::ArbitrationMode::Cost;
  options.arbitration_interval = util::SimTime::minutes(5);
  options.seed = seed;
  cluster::SpotPreemptionEvent preemption;
  preemption.machine = 8;  // first premium node
  preemption.at = util::SimTime::minutes(60);
  options.fault_plan.spot_preemptions.push_back(preemption);
  return options;
}

/// Admission by study name onto the instance's traces.
std::function<void(core::StudyManager&, const core::StudySpec&, Tracer*)> admit_onto(
    const MixTraces* traces) {
  return [traces](core::StudyManager& manager, const core::StudySpec& spec, Tracer* tracer) {
    const workload::Trace* trace = spec.name == "urgent"  ? &traces->urgent
                                   : spec.name == "batch" ? &traces->batch
                                   : spec.name == "quick" ? &traces->quick
                                                          : nullptr;
    if (trace == nullptr) throw std::invalid_argument("unknown study " + spec.name);
    manager.add_study(spec, *trace, [spec, tracer] {
      return make_policy(spec.policy, core::PolicyParams::parse(spec.policy_params),
                         spec.seed, spec.tmax, tracer);
    });
  };
}

std::vector<core::StudySpec> tenant_specs(std::uint64_t seed) {
  core::StudySpec urgent;
  urgent.name = "urgent";
  urgent.deadline = util::SimTime::minutes(150);
  urgent.node_class = "premium";
  urgent.seed = derive(seed, 1);
  core::StudySpec batch;
  batch.name = "batch";
  batch.seed = derive(seed, 2);
  core::StudySpec quick;
  quick.name = "quick";
  quick.policy = "default";
  quick.target = kQuickTarget;
  quick.seed = derive(seed, 3);
  return {urgent, batch, quick};
}

/// The cloud bill can never exceed holding the whole catalog for the run.
void check_bill(const StudyMix& mix, const core::MultiStudyResult& result, Report& report) {
  double dollars_per_hour = 0.0;
  const cluster::NodeCatalog& catalog = mix.options.catalog;
  for (std::size_t c = 0; c < catalog.classes(); ++c) {
    const cluster::NodeClass& block = catalog.at(static_cast<cluster::NodeClassId>(c));
    dollars_per_hour += static_cast<double>(block.count) * block.price_per_hour;
  }
  const double ceiling = dollars_per_hour * result.total_time.to_seconds() / 3600.0;
  if (!(result.spend_usd > 0.0) || result.spend_usd > ceiling * (1.0 + 1e-12)) {
    report.fail("cloud bill " + exact(result.spend_usd) + " outside (0, " + exact(ceiling) +
                "]");
  }
}

}  // namespace

void run_tenants(const Args& args, Report& report) {
  // Instances per run; each has its own training noise and seeds.
  constexpr std::size_t kInstances = 3;

  const auto t0 = Clock::now();
  workload::CifarWorkloadModel model;
  // ext_elastic's fixed hyperparameter sets, re-realized per instance.
  const workload::Trace urgent_base = workload::suitable_trace(model, 40, 7100, 12);
  const workload::Trace batch_base = workload::suitable_trace(model, 48, 7200, 12);
  const workload::Trace quick_base = workload::suitable_trace(model, 8, 7300, 4);
  // A fixed pool of instances, run in a seed-dependent order: every run does
  // the same work. One instance's cost depends on its training noise (POP
  // decides differently on it); six instances drawn afresh per run spread
  // runs_per_s and resume_s by 10-15% from seed to seed.
  std::vector<std::uint64_t> instance_seeds;
  for (std::size_t k = 0; k < kInstances; ++k) {
    instance_seeds.push_back(derive(kInstancePool, 10 + k));
  }
  shuffle(instance_seeds, args.seed);
  std::vector<MixTraces> traces(kInstances);
  for (std::size_t k = 0; k < kInstances; ++k) {
    const std::uint64_t s = instance_seeds[k];
    traces[k].urgent = workload::renoise(model, urgent_base, derive(s, 1));
    traces[k].batch = workload::renoise(model, batch_base, derive(s, 2));
    traces[k].quick = workload::renoise(model, quick_base, derive(s, 3));
    traces[k].quick.target_performance = kQuickTarget;
  }
  Workload w;
  w.trace_s = since(t0);

  for (std::size_t k = 0; k < kInstances; ++k) {
    const std::uint64_t s = instance_seeds[k];
    StudyMix mix;
    mix.specs = tenant_specs(s);
    mix.options = tenant_options(derive(s, 4));
    mix.admit = admit_onto(&traces[k]);
    mix.crash_at = util::SimTime::minutes(90);
    for (const auto& spec : mix.specs) w.burst_specs.push_back(spec_text(spec));
    w.mixes.push_back(std::move(mix));
  }
  w.counted = Counted::Plain;
  w.check_mix = check_bill;
  setup_done(w.setup_s);

  run_workload(args, report, w);
}

}  // namespace pb
