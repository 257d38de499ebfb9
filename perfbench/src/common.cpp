// Paths shared by the workloads: output fingerprints and method-level
// checks, the plain / checkpointed / resumed coordinator runs, the frame
// round trip, and the durable submit burst.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "core/study/checkpoint.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace pb {

namespace fs = std::filesystem;
namespace svc = hyperdrive::svc;

std::string fingerprint(const core::ExperimentResult& r) {
  std::ostringstream os;
  os << r.policy_name << ' ' << r.reached_target << ' ' << exact(r.time_to_target.to_seconds())
     << ' ' << r.winning_job << ' ' << exact(r.best_perf) << ' '
     << exact(r.total_time.to_seconds()) << ' ' << exact(r.total_machine_time.to_seconds())
     << ' ' << r.suspends << ' ' << r.terminations << ' ' << r.jobs_started << ' '
     << r.clones << ' ' << r.retransmissions << ' ' << exact(r.slot_seconds.to_seconds())
     << ' ' << exact(r.spend_usd);
  const auto& rec = r.recovery;
  os << " rec " << rec.node_crashes << ' ' << rec.node_restarts << ' ' << rec.jobs_requeued
     << ' ' << rec.epochs_lost << ' ' << rec.snapshots_lost << ' '
     << rec.snapshot_restore_failures << ' ' << rec.stat_reports_lost << ' '
     << rec.duplicate_stats_ignored << ' ' << rec.jobs_migrated << ' '
     << rec.nodes_quarantined << ' ' << rec.nodes_reinstated << ' '
     << rec.hung_jobs_detected << ' ' << rec.wrong_kills;
  for (const auto& j : r.job_stats) {
    os << '\n'
       << j.job_id << ' ' << exact(j.execution_time.to_seconds()) << ' ' << j.epochs_completed
       << ' ' << j.times_suspended << ' ' << static_cast<int>(j.final_status) << ' '
       << exact(j.best_perf) << ' ' << j.study;
  }
  return os.str();
}

std::string fingerprint(const core::MultiStudyResult& r) {
  std::ostringstream os;
  r.save_csv(os);
  os << exact(r.total_time.to_seconds()) << ' ' << r.rebalances << ' ' << exact(r.spend_usd)
     << '\n';
  for (const auto& line : r.event_log) os << line << '\n';
  return os.str();
}

void check_experiment(const core::ExperimentResult& result, const workload::Trace& trace,
                      std::size_t machines, Report& report, const std::string& what,
                      const CloneCurves& clones) {
  const double capacity = static_cast<double>(machines) * result.total_time.to_seconds();
  if (result.total_machine_time.to_seconds() > capacity * (1.0 + 1e-12)) {
    report.fail(what + ": total_machine_time exceeds machines x total_time");
  }
  if (!result.reached_target) return;
  if (result.best_perf < trace.target_performance) {
    report.fail(what + ": best_perf below the target of a run that reached it");
  }
  const workload::GroundTruthCurve* curve = nullptr;
  for (const auto& job : trace.jobs) {
    if (job.job_id == result.winning_job) curve = &job.curve;
  }
  const auto cloned = clones.find(result.winning_job);
  if (cloned != clones.end()) curve = &cloned->second;
  const core::JobRunStats* stats = nullptr;
  for (const auto& s : result.job_stats) {
    if (s.job_id == result.winning_job) stats = &s;
  }
  if (curve == nullptr || stats == nullptr) {
    report.fail(what + ": winning job is not in the trace");
    return;
  }
  const std::size_t epoch = curve->first_epoch_reaching(trace.target_performance);
  if (epoch == 0 || epoch != stats->epochs_completed) {
    report.fail(what + ": winner's curve reaches the target at epoch " +
                std::to_string(epoch) + ", run reports epoch " +
                std::to_string(stats->epochs_completed));
  }
}

namespace {

/// Frame cadence of the in-memory checkpointed run, and of the run whose
/// frames go to disk. The disk cadence is coarser: every frame is a file
/// created (and rewritten on resume), and file creation on a shared disk is
/// the noisiest thing a run can time.
const util::SimTime kCheckpointEvery = util::SimTime::seconds(300.0);
const util::SimTime kDiskCheckpointEvery = util::SimTime::minutes(30);

core::StudyManagerOptions logged(const StudyMix& mix, Tracer* tracer) {
  core::StudyManagerOptions options = mix.options;
  options.record_event_log = true;
  if (tracer != nullptr) options.obs.sink = &tracer->sink;
  return options;
}

core::AdmitStudyFn admit_fn(const StudyMix& mix, Tracer* tracer) {
  return [&mix, tracer](core::StudyManager& manager, const core::StudySpec& spec) {
    mix.admit(manager, spec, tracer);
  };
}

}  // namespace

core::MultiStudyResult run_plain(const StudyMix& mix, Tracer* tracer) {
  core::StudyManager manager(logged(mix, tracer));
  for (const auto& spec : mix.specs) mix.admit(manager, spec, tracer);
  Span span(tracer, Layer::Study);
  return manager.run();
}

core::RecoverableRunResult run_recover(const StudyMix& mix, Tracer* tracer, bool on_disk) {
  core::StudyManagerOptions options = logged(mix, tracer);
  cluster::CoordinatorCrashEvent crash;
  crash.at = mix.crash_at;
  options.fault_plan.coordinator_crashes.push_back(crash);
  core::CheckpointOptions checkpoint;
  checkpoint.every = kCheckpointEvery;
  if (on_disk) {
    fresh_dir(mix.dir);
    checkpoint.dir = mix.dir;
    checkpoint.every = kDiskCheckpointEvery;
  }
  Span span(tracer, Layer::Recoverable);
  return core::run_recoverable_multi_study(mix.specs, options, checkpoint,
                                           admit_fn(mix, tracer));
}

core::RecoverableRunResult run_resume(const StudyMix& mix, Tracer* tracer) {
  core::CheckpointOptions checkpoint;
  checkpoint.dir = mix.dir;
  checkpoint.every = kDiskCheckpointEvery;
  checkpoint.resume = true;
  Span span(tracer, Layer::Resume);
  return core::run_recoverable_multi_study({}, logged(mix, tracer), checkpoint,
                                           admit_fn(mix, tracer));
}

FrameCheck check_frames(const std::string& dir, Tracer* tracer, Report& report) {
  FrameCheck out;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".hdck") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) report.fail("no checkpoint frames in " + dir);
  double encode_s = 0.0;
  double decode_s = 0.0;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    auto t0 = Clock::now();
    core::CheckpointDecodeResult decoded;
    {
      Span span(tracer, Layer::CkptDecode);
      decoded = core::decode_checkpoint(bytes);
    }
    decode_s += since(t0);
    if (!decoded.checkpoint) {
      report.fail("frame " + path.filename().string() + " does not decode");
      continue;
    }
    t0 = Clock::now();
    std::vector<std::uint8_t> again;
    {
      Span span(tracer, Layer::CkptEncode);
      again = core::encode_checkpoint(*decoded.checkpoint);
    }
    encode_s += since(t0);
    if (again != bytes) {
      report.fail("frame " + path.filename().string() + " does not re-encode to its bytes");
    }
    ++out.frames;
    out.bytes += bytes.size();
  }
  if (out.frames > 0) {
    out.encode_ms = 1000.0 * encode_s / static_cast<double>(out.frames);
    out.decode_ms = 1000.0 * decode_s / static_cast<double>(out.frames);
  }
  return out;
}

std::string spec_text(const core::StudySpec& spec) {
  std::ostringstream os;
  core::save_study_spec(spec, os);
  return os.str();
}

std::size_t dir_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<double> submit_burst(const std::string& state_dir,
                                 const std::vector<std::string>& spec_texts,
                                 std::size_t submits, Tracer* tracer, Report& report,
                                 std::size_t* journal_bytes) {
  constexpr std::size_t kTenants = 8;
  if (!state_dir.empty()) fresh_dir(state_dir);
  std::vector<double> latencies;
  latencies.reserve(submits);
  std::vector<std::uint64_t> ids;
  {
    svc::ServiceOptions options;
    options.state_dir = state_dir;
    options.admission.max_running = 0;
    options.admission.max_queued = submits;
    options.admission.tenant.max_queued = submits;
    svc::StudyService service(options);
    svc::Server server(service, {});
    server.start();
    {
      svc::ClientOptions copts;
      copts.port = server.port();
      svc::Client client(copts);
      for (std::size_t i = 0; i < submits; ++i) {
        const std::string tenant = "tenant-" + std::to_string(i % kTenants);
        const auto t0 = Clock::now();
        svc::Message reply;
        {
          Span span(tracer, Layer::SvcSubmit);
          reply = client.submit(tenant, spec_texts[i % spec_texts.size()]);
        }
        latencies.push_back(since(t0));
        if (reply.type != svc::MsgType::Submitted) {
          report.fail("burst submit " + std::to_string(i) + " not accepted: " + reply.text);
        } else {
          ids.push_back(reply.id);
        }
      }
    }
    if (service.list("").size() != submits || service.queued_count() != submits) {
      report.fail("service holds a different submission count than was accepted");
    }
    server.request_stop();
    server.wait_shutdown();
    service.stop();
  }
  if (std::set<std::uint64_t>(ids.begin(), ids.end()).size() != ids.size()) {
    report.fail("burst ids are not unique");
  }
  if (state_dir.empty()) return latencies;
  // Journaled exactly once: one directory per accepted id, holding the
  // submitted text verbatim, and nothing else.
  std::size_t dirs = 0;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    if (entry.is_directory()) ++dirs;
  }
  if (dirs != ids.size()) report.fail("journal holds a different submission count");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::ifstream in(state_dir + "/sub-" + std::to_string(ids[i]) + "/spec.study",
                     std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (text != spec_texts[i % spec_texts.size()]) {
      report.fail("journaled spec of submission " + std::to_string(ids[i]) + " differs");
      break;
    }
  }
  if (journal_bytes != nullptr) *journal_bytes = dir_bytes(state_dir);
  return latencies;
}

void Layers::from_spans(const std::vector<LayerTotals>& rounds) {
  const auto med = [&](Layer layer, auto field) {
    std::vector<double> xs;
    for (const auto& totals : rounds) xs.push_back(field(totals[static_cast<std::size_t>(layer)]));
    return median(xs);
  };
  const auto count = [](const SpanTotals& t) { return static_cast<double>(t.count); };
  const auto total = [](const SpanTotals& t) { return t.total_s; };
  const auto self = [](const SpanTotals& t) { return t.self_s; };
  predict_calls = med(Layer::CurveRequest, count);
  fits = med(Layer::CurveFit, count);
  curve_busy_s = med(Layer::CurveRequest, total);
  fit_ms = fits > 0.0 ? 1000.0 * med(Layer::CurveFit, total) / fits : 0.0;
  policy_calls = med(Layer::Policy, count);
  policy_self_s = med(Layer::Policy, self);
  cluster_self_s = med(Layer::Experiment, self);
  study_self_s = med(Layer::Study, self);
  const double recover = med(Layer::Recoverable, total);
  const double plain = med(Layer::Study, total);
  if (recover > 0.0 && plain > 0.0) ckpt_overhead_s = recover - plain;
  replay_s = med(Layer::Resume, self);
  const auto per_call_ms = [&](Layer layer) {
    const double n = med(layer, count);
    return n > 0.0 ? 1000.0 * med(layer, total) / n : 0.0;
  };
  status_ms = per_call_ms(Layer::SvcStatus);
  fetch_ms = per_call_ms(Layer::SvcFetch);
  status_polls = med(Layer::SvcStatus, count);
}

void Layers::emit(Report& report) const {
  report.metric("workload.trace_s", trace_s, "s");
  report.metric("curve.predict_calls", predict_calls, "count");
  report.metric("curve.fits", fits, "count");
  report.metric("curve.cache_hit_ratio",
                predict_calls > 0.0 ? 1.0 - fits / predict_calls : 0.0, "ratio");
  report.metric("curve.busy_s", curve_busy_s, "s");
  report.metric("curve.fit_ms", fit_ms, "ms");
  report.metric("curve.cache_entries", cache_entries, "count");
  report.metric("policy.calls", policy_calls, "count");
  report.metric("policy.self_s", policy_self_s, "s");
  report.metric("cluster.self_s", cluster_self_s, "s");
  report.metric("cluster.epochs", epochs, "count");
  report.metric("cluster.epochs_per_s", cluster_self_s > 0.0 ? epochs / cluster_self_s : 0.0,
                "1/s");
  report.metric("cluster.suspends", suspends, "count");
  report.metric("cluster.terminations", terminations, "count");
  report.metric("cluster.clones", clones, "count");
  report.metric("cluster.retransmissions", retransmissions, "count");
  report.metric("cluster.jobs_requeued", jobs_requeued, "count");
  report.metric("obs.events", obs_events, "count");
  report.metric("trace.overhead_s", trace_overhead_s, "s");
  report.metric("study.self_s", study_self_s, "s");
  report.metric("study.rebalances", rebalances, "count");
  report.metric("study.lease_grants", lease_grants, "count");
  report.metric("checkpoint.frames", ckpt_frames, "count");
  report.metric("checkpoint.bytes", ckpt_bytes, "B");
  report.metric("checkpoint.encode_ms", ckpt_encode_ms, "ms");
  report.metric("checkpoint.decode_ms", ckpt_decode_ms, "ms");
  report.metric("checkpoint.overhead_s", ckpt_overhead_s, "s");
  report.metric("recovery.replay_s", replay_s, "s");
  report.metric("svc.submit_ms", submit_ms, "ms");
  report.metric("svc.submit_ms_p99", submit_ms_p99, "ms");
  report.metric("svc.status_ms", status_ms, "ms");
  report.metric("svc.fetch_ms", fetch_ms, "ms");
  report.metric("svc.queue_wait_ms", queue_wait_ms, "ms");
  report.metric("svc.status_polls", status_polls, "count");
  report.metric("svc.journal_submit_ms", journal_submit_ms, "ms");
  report.metric("svc.journal_bytes", journal_bytes, "B");
}

void add_cluster_counts(Layers& layers, const core::ExperimentResult& result) {
  for (const auto& job : result.job_stats) layers.epochs += static_cast<double>(job.epochs_completed);
  layers.suspends += static_cast<double>(result.suspends);
  layers.terminations += static_cast<double>(result.terminations);
  layers.clones += static_cast<double>(result.clones);
  layers.retransmissions += static_cast<double>(result.retransmissions);
  layers.jobs_requeued += static_cast<double>(result.recovery.jobs_requeued);
}

}  // namespace pb
