// The four workloads and the paths they share. Each workload generates its
// inputs from --seed, times whole rounds of identical work, checks the
// program's outputs, and fills the report (end-to-end metrics untraced,
// per-layer metrics traced).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment_result.hpp"
#include "core/experiment_runner.hpp"
#include "core/study/coordinator.hpp"
#include "core/study/study_manager.hpp"
#include "harness.hpp"
#include "tracing.hpp"
#include "workload/trace.hpp"

namespace pb {

namespace cluster = hyperdrive::cluster;
namespace workload = hyperdrive::workload;

void run_sweep(const Args& args, Report& report);
void run_fleet(const Args& args, Report& report);
void run_tenants(const Args& args, Report& report);
void run_service(const Args& args, Report& report);

/// Checks the LSQ predictor against noiseless curves of known parameters of
/// seven families; failures go to the report.
void check_curve_accuracy(Report& report);
/// The same check on an mmf curve; throws when the fit misses. It misses
/// every time (a fault of the LSQ fit), so sweep runs it as its known
/// failing op.
[[nodiscard]] std::string check_mmf_fit();

/// Lossless text of everything a run reports (fingerprints).
[[nodiscard]] std::string fingerprint(const core::ExperimentResult& result);
[[nodiscard]] std::string fingerprint(const core::MultiStudyResult& result);

/// Curves the explore hook gave cloned jobs (PBT), by job id.
using CloneCurves = std::map<std::uint64_t, workload::GroundTruthCurve>;

/// Method-level checks on one experiment over `trace`: a reported winner's
/// curve (its clone curve when it was cloned) reaches the target at the epoch
/// the run reports, best_perf is at or above the target, and machine time
/// fits in machines x total time.
void check_experiment(const core::ExperimentResult& result, const workload::Trace& trace,
                      std::size_t machines, Report& report, const std::string& what,
                      const CloneCurves& clones = {});

/// A set of studies run through the coordinator: plain (StudyManager::run);
/// checkpointed with a coordinator crash (run_recoverable_multi_study), with
/// frames in memory; the same once with frames on disk; and resumed from the
/// frames that run left on disk.
struct StudyMix {
  std::vector<core::StudySpec> specs;
  core::StudyManagerOptions options;
  /// Admits one spec into a manager; `tracer` selects traced policies.
  std::function<void(core::StudyManager&, const core::StudySpec&, Tracer*)> admit;
  /// The in-simulation coordinator crash time.
  util::SimTime crash_at = util::SimTime::minutes(90);
  /// Frame directory of the on-disk run.
  std::string dir;
};

/// Run the mix once, plain. With a tracer: spans, and policies traced.
[[nodiscard]] core::MultiStudyResult run_plain(const StudyMix& mix, Tracer* tracer);
/// Fresh checkpointed run that survives the coordinator crash; frames on
/// disk in mix.dir (recreated) when `on_disk`, else in memory.
[[nodiscard]] core::RecoverableRunResult run_recover(const StudyMix& mix, Tracer* tracer,
                                                     bool on_disk = false);
/// Resume the finished on-disk run from its frames in mix.dir.
[[nodiscard]] core::RecoverableRunResult run_resume(const StudyMix& mix, Tracer* tracer);

/// Frame round trip: encode_checkpoint(decode_checkpoint(frame)) must equal
/// every frame's bytes on disk. Returns the frame count and bytes, and the
/// mean encode and decode time per frame.
struct FrameCheck {
  std::size_t frames = 0;
  std::size_t bytes = 0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
};
FrameCheck check_frames(const std::string& dir, Tracer* tracer, Report& report);

/// Submissions into a service that runs nothing (max-running 0), over TCP
/// loopback from one closed-loop client, round-robin over 8 tenants. With a
/// state directory the service journals each submission there; empty keeps
/// it in memory. Returns per-submit latencies (s); checks every submission is
/// accepted (and journaled) exactly once.
std::vector<double> submit_burst(const std::string& state_dir,
                                 const std::vector<std::string>& spec_texts,
                                 std::size_t submits, Tracer* tracer, Report& report,
                                 std::size_t* journal_bytes = nullptr);

/// Study-spec text of one spec (what a tenant submits).
[[nodiscard]] std::string spec_text(const core::StudySpec& spec);

/// Total size of the regular files under `dir`.
[[nodiscard]] std::size_t dir_bytes(const std::string& dir);

/// Per-layer figures of one traced run. Every workload reports all of them;
/// a layer the workload does not reach reads 0. Times and counts are per
/// round (one pass over the workload's ops), medians over traced rounds.
struct Layers {
  double trace_s = 0.0;
  double predict_calls = 0.0, fits = 0.0, curve_busy_s = 0.0, fit_ms = 0.0;
  double cache_entries = 0.0;
  double policy_calls = 0.0, policy_self_s = 0.0;
  double cluster_self_s = 0.0, epochs = 0.0, suspends = 0.0, terminations = 0.0;
  double clones = 0.0, retransmissions = 0.0, jobs_requeued = 0.0;
  double obs_events = 0.0, trace_overhead_s = 0.0;
  double study_self_s = 0.0, rebalances = 0.0, lease_grants = 0.0;
  double ckpt_frames = 0.0, ckpt_bytes = 0.0, ckpt_encode_ms = 0.0, ckpt_decode_ms = 0.0;
  double ckpt_overhead_s = 0.0, replay_s = 0.0;
  double submit_ms = 0.0, submit_ms_p99 = 0.0, status_ms = 0.0, fetch_ms = 0.0;
  double queue_wait_ms = 0.0, status_polls = 0.0, journal_submit_ms = 0.0;
  double journal_bytes = 0.0;

  /// Fill the span-derived fields from the traced rounds' totals.
  void from_spans(const std::vector<LayerTotals>& rounds);
  /// Add every per-layer metric to the report, in BENCHMARK.json order.
  void emit(Report& report) const;
};

/// Sum of result counters into the cluster fields of `layers`.
void add_cluster_counts(Layers& layers, const core::ExperimentResult& result);

/// One single-study experiment: a registry policy over a trace through
/// core::run_experiment.
struct Item {
  std::string label;
  std::string policy;
  const workload::Trace* trace = nullptr;
  core::RunnerOptions options;
  std::uint64_t policy_seed = 1;
  /// Set for workloads whose policies may clone (PBT's explore hook).
  std::shared_ptr<const workload::WorkloadModel> explore_model;
};

struct ItemRun {
  core::ExperimentResult result;
  CloneCurves clones;
};
/// With a tracer: spans, traced policies, and events counted on tracer->sink.
[[nodiscard]] ItemRun run_item(const Item& item, Tracer* tracer);

/// The runs a workload counts in runs_per_s.
enum class Counted {
  Items,  ///< every experiment in Workload::items
  Batch,  ///< the batch op, as Workload::batch_runs runs
  Plain,  ///< every mix's plain coordinator run
};

/// A workload made of experiments and coordinator runs. Its counted runs
/// give runs_per_s. Every mix also runs checkpointed with a crash
/// (recovery_s) and resumed from disk (resume_s), and a submit burst of
/// `burst_specs` gives submits_per_s.
struct Workload {
  Counted counted = Counted::Items;
  std::vector<Item> items;
  /// A batch op counted as `batch_runs` runs (service); returns the
  /// fingerprint of its output. `keep` marks the op whose output the checks
  /// read.
  std::function<std::string(Tracer*, bool keep)> batch;
  std::size_t batch_runs = 0;
  std::vector<StudyMix> mixes;
  /// Crash each mix's checkpointed run at half of its plain run's sim time
  /// (instead of StudyMix::crash_at).
  bool crash_at_half = false;
  std::vector<std::string> burst_specs;
  std::size_t burst_submits = 200;
  /// From process start to the inputs being ready (set by the workload).
  double setup_s = 0.0;
  double trace_s = 0.0;
  /// Extra method-level checks on a mix's plain result.
  std::function<void(const StudyMix&, const core::MultiStudyResult&, Report&)> check_mix;
  /// An op that fails every time because of a known fault in the program,
  /// on inputs that do not depend on the seed: run once per round and counted
  /// in `failed`, never in a metric.
  std::function<std::string()> known_fault;
  /// After the timed rounds: extra checks, and extra per-layer figures in the
  /// traced run (`layers` is null in the untraced run).
  std::function<void(Report&, Layers*, Tracer&)> finish;
};

/// Time and check a workload.
void run_workload(const Args& args, Report& report, Workload& workload);

}  // namespace pb
