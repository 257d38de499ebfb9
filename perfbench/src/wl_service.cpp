// service: svc::StudyService and svc::Server over TCP loopback, driven by one
// closed-loop svc::Client that waits for each reply before sending the next
// request. Each round runs
//   * a burst of tiny submissions across 8 tenants into a server that runs
//     nothing (max-running 0): protocol and admission cost without compute;
//   * a batch of small real studies (cifar10, lunarlander, ptb_lstm under pop
//     and asha) at max-running 2: the client polls the batch to completion
//     and fetches both artifacts of every study;
//   * every batch study through the coordinator, checkpointed with a crash,
//     and resumed from frames on disk.
// Timed services keep their state in memory (file creation on the checkout's
// disk is too noisy to time); a journaled burst is checked before the rounds
// and timed per layer in traced runs. It is the only workload that goes
// through the svc protocol and admission.
#include <chrono>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/generators/hyperparameter_generator.hpp"
#include "obs/export.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/ptb_lstm_model.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace svc = hyperdrive::svc;

constexpr std::size_t kMachines = 4;
constexpr std::uint64_t kServiceSeed = 7;
constexpr std::size_t kBurstSubmits = 400;
constexpr std::size_t kTenants = 8;
/// Studies per workload x policy in the batch.
constexpr std::size_t kCopies = 2;

struct Artifacts {
  std::string result_csv;
  std::string timeline_csv;
};

/// The StudyManagerOptions the service builds for every study.
core::StudyManagerOptions service_manager_options() {
  core::StudyManagerOptions options;
  options.machines = kMachines;
  options.seed = kServiceSeed;
  options.arbitration = core::ArbitrationMode::FairShare;
  return options;
}

/// The spec run directly through the coordinator with the service's options
/// and no checkpoints.
Artifacts direct_run(const core::StudySpec& spec) {
  core::StudyManagerOptions options = service_manager_options();
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  const auto run = core::run_recoverable_multi_study({spec}, options, {});
  Artifacts out;
  std::ostringstream rs;
  run.result.save_csv(rs);
  out.result_csv = rs.str();
  std::ostringstream ts;
  obs::write_timeline_csv(ts, sink.events);
  out.timeline_csv = ts.str();
  return out;
}

std::shared_ptr<workload::WorkloadModel> model_for(const std::string& name) {
  if (name == "cifar10") return std::make_shared<workload::CifarWorkloadModel>();
  if (name == "lunarlander") return std::make_shared<workload::LunarWorkloadModel>();
  if (name == "ptb_lstm") return std::make_shared<workload::PtbLstmWorkloadModel>();
  throw std::invalid_argument("unknown workload " + name);
}

/// The trace StudyManager::add_study(spec) realizes for a spec: its
/// workload's model, the random generator, feedback reported.
workload::Trace realize(const core::StudySpec& spec) {
  const auto model = model_for(spec.workload);
  auto generator = core::make_random_generator(model->space(), spec.seed);
  auto trace = core::trace_from_generator(*model, *generator, spec.configs, spec.seed,
                                          /*report_feedback=*/true);
  if (spec.has_target_override()) trace.target_performance = spec.target;
  return trace;
}

bool terminal(svc::StudyState state) {
  return state == svc::StudyState::Finished || state == svc::StudyState::Cancelled ||
         state == svc::StudyState::Failed;
}

/// One batch through a fresh service (state in memory): submit every spec,
/// poll each to completion, fetch both artifacts. Returns the artifacts in
/// spec order.
std::vector<Artifacts> run_batch(const std::vector<std::string>& texts, Tracer* tracer,
                                 obs::MetricsRegistry* metrics) {
  svc::ServiceOptions options;
  options.machines = kMachines;
  options.seed = kServiceSeed;
  options.admission.max_running = 2;
  options.admission.max_queued = texts.size();
  options.obs.metrics = metrics;
  svc::StudyService service(options);
  svc::Server server(service, {});
  server.start();

  std::vector<Artifacts> out(texts.size());
  std::vector<std::uint64_t> ids;
  {
    svc::ClientOptions copts;
    copts.port = server.port();
    svc::Client client(copts);
    for (std::size_t i = 0; i < texts.size(); ++i) {
      svc::Message reply;
      {
        Span span(tracer, Layer::SvcSubmit);
        reply = client.submit("tenant-" + std::to_string(i % kTenants), texts[i]);
      }
      if (reply.type != svc::MsgType::Submitted) {
        throw std::runtime_error("batch submit rejected: " + reply.text);
      }
      ids.push_back(reply.id);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (;;) {
        svc::Message status;
        {
          Span span(tracer, Layer::SvcStatus);
          status = client.status(ids[i]);
        }
        if (status.type != svc::MsgType::StatusInfo) {
          throw std::runtime_error("status failed: " + status.text);
        }
        if (terminal(status.info.state)) {
          if (status.info.state != svc::StudyState::Finished) {
            throw std::runtime_error("study did not finish: " + status.info.detail);
          }
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (const auto kind : {svc::ArtifactKind::ResultCsv, svc::ArtifactKind::TimelineCsv}) {
        svc::Message artifact;
        {
          Span span(tracer, Layer::SvcFetch);
          artifact = client.fetch(ids[i], kind);
        }
        if (artifact.type != svc::MsgType::Artifact) {
          throw std::runtime_error("fetch failed: " + artifact.text);
        }
        (kind == svc::ArtifactKind::ResultCsv ? out[i].result_csv : out[i].timeline_csv) =
            artifact.text;
      }
    }
  }
  server.request_stop();
  server.wait_shutdown();
  service.stop();

  if (std::set<std::uint64_t>(ids.begin(), ids.end()).size() != texts.size()) {
    throw std::runtime_error("batch ids are not unique");
  }
  return out;
}

std::string tiny_spec(std::uint64_t seed) {
  return "study tiny\nworkload cifar10\npolicy pop\nconfigs 2\nseed " + std::to_string(seed) +
         "\n";
}

}  // namespace

void run_service(const Args& args, Report& report) {
  const std::vector<std::string> workloads = {"cifar10", "lunarlander", "ptb_lstm"};
  const std::vector<std::string> policies = {"pop", "asha"};

  const auto t0 = Clock::now();
  // A fixed pool of studies, submitted in a seed-dependent order: every run
  // submits the same work, in another order, from other tenants. A study's
  // cost depends strongly on its configurations, which the spec seed draws;
  // a per-run draw spread runs_per_s by 50%.
  std::vector<core::StudySpec> specs;
  for (std::size_t copy = 0; copy < kCopies; ++copy) {
    for (const auto& name : workloads) {
      for (const auto& policy : policies) {
        core::StudySpec spec;
        spec.name = name + "-" + policy + "-" + std::to_string(copy);
        spec.workload = name;
        spec.policy = policy;
        spec.configs = 16;
        spec.seed = 1000 + specs.size();
        specs.push_back(spec);
      }
    }
  }
  shuffle(specs, args.seed);
  std::vector<std::string> texts;
  std::vector<workload::Trace> traces;
  for (const auto& spec : specs) {
    texts.push_back(spec_text(spec));
    traces.push_back(realize(spec));
  }
  Workload w;
  w.trace_s = since(t0);
  for (std::size_t i = 0; i < kTenants; ++i) {
    w.burst_specs.push_back(tiny_spec(derive(args.seed, 100 + i)));
  }
  w.burst_submits = kBurstSubmits;

  // The coordinator paths on every batch study, admitted onto the trace the
  // service realizes for it.
  const auto admit = [&traces, &specs](core::StudyManager& manager,
                                       const core::StudySpec& spec, Tracer* tracer) {
    std::size_t i = 0;
    while (i < specs.size() && specs[i].name != spec.name) ++i;
    if (i == specs.size()) throw std::invalid_argument("unknown study " + spec.name);
    manager.add_study(spec, traces[i], [spec, tracer] {
      return make_policy(spec.policy, core::PolicyParams::parse(spec.policy_params),
                         spec.seed, spec.tmax, tracer);
    });
  };
  for (const auto& spec : specs) {
    StudyMix mix;
    mix.specs = {spec};
    mix.options = service_manager_options();
    mix.admit = admit;
    w.mixes.push_back(mix);
  }
  w.crash_at_half = true;

  obs::MetricsRegistry registry;
  svc::preregister_service_metrics(registry);
  std::vector<Artifacts> fetched;
  w.batch = [&](Tracer* tracer, bool keep) {
    auto got = run_batch(texts, tracer, tracer != nullptr ? &registry : nullptr);
    std::string fp;
    for (const auto& a : got) fp += a.result_csv + a.timeline_csv;
    if (keep) fetched = std::move(got);
    return fp;
  };
  w.counted = Counted::Batch;
  w.batch_runs = specs.size();

  w.finish = [&](Report& r, Layers* layers, Tracer& tracer) {
    // Every fetched artifact equals the same spec run directly through the
    // coordinator with the service's options and no checkpoints.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Artifacts expected = direct_run(specs[i]);
      if (fetched.size() != specs.size() || fetched[i].result_csv != expected.result_csv ||
          fetched[i].timeline_csv != expected.timeline_csv) {
        r.fail("fetched artifacts of " + specs[i].name + " differ from the direct run");
      }
      // The benchmark's admission onto the realized trace reproduces it too
      // (traced when tracing: the studies run on the service's worker
      // threads, where no decorator reaches, so the curve and policy layers
      // are counted on this direct run of the same batch).
      std::ostringstream rs;
      run_plain(w.mixes[i], layers != nullptr ? &tracer : nullptr).save_csv(rs);
      if (rs.str() != expected.result_csv) {
        r.fail("admission onto the realized trace differs for " + specs[i].name);
      }
    }
    if (layers == nullptr) return;
    Layers direct;
    direct.from_spans({tracer.take()});
    layers->predict_calls = direct.predict_calls;
    layers->fits = direct.fits;
    layers->curve_busy_s = direct.curve_busy_s;
    layers->fit_ms = direct.fit_ms;
    layers->policy_calls = direct.policy_calls;
    layers->policy_self_s = direct.policy_self_s;
    layers->study_self_s = direct.study_self_s;
    layers->cache_entries = static_cast<double>(tracer.take_cache_entries());
    const auto& wait =
        registry.histogram("svc.queue_wait_ms", {1.0, 10.0, 100.0, 1000.0, 10000.0});
    layers->queue_wait_ms =
        wait.count() > 0 ? wait.sum() / static_cast<double>(wait.count()) : 0.0;
  };
  setup_done(w.setup_s);
  run_workload(args, report, w);
}

}  // namespace pb
