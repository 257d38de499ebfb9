// Generic timing of experiment and coordinator workloads (sweep, fleet,
// tenants, service): one round runs every counted run, every mix
// checkpointed with a crash and resumed, and one submit burst. End-to-end
// figures are sums over ops of each op's fastest round: the host only ever
// slows an op down, so a slow phase that misses one round of an op does not
// move it.
#include <algorithm>
#include <cstdio>

#include "core/generators/hyperparameter_generator.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

/// The policies' horizon, a study spec's default.
const util::SimTime kTmax = util::SimTime::hours(48);

}  // namespace

ItemRun run_item(const Item& item, Tracer* tracer) {
  ItemRun out;
  core::RunnerOptions options = item.options;
  if (item.explore_model) {
    auto explore = core::make_model_explore(item.explore_model);
    CloneCurves* clones = &out.clones;
    options.explore = [explore, clones](const workload::TraceJob& target,
                                        const workload::TraceJob& donor, std::size_t epoch,
                                        std::uint64_t stream) {
      workload::TraceJob job = explore(target, donor, epoch, stream);
      (*clones)[job.job_id] = job.curve;
      return job;
    };
  }
  if (tracer != nullptr) options.obs.sink = &tracer->sink;
  auto policy = make_policy(item.policy, {}, item.policy_seed, kTmax, tracer);
  Span span(tracer, Layer::Experiment);
  out.result = core::run_experiment(*item.trace, *policy, options);
  return out;
}

namespace {

/// The ops of one round, with or without tracing.
struct OpSet {
  std::vector<Op> ops;
  std::size_t runs = 0;     ///< ops [0, runs) are the counted runs
  std::size_t recover = 0;  ///< first recover op; one per mix
  std::size_t resume = 0;   ///< first resume op; one per mix
};

/// Submits per second of the fastest whole burst in `latencies`.
double burst_rate(const std::vector<double>& latencies, std::size_t per_burst) {
  double best = 0.0;
  for (std::size_t b = 0; (b + 1) * per_burst <= latencies.size(); ++b) {
    double sum = 0.0;
    for (std::size_t i = b * per_burst; i < (b + 1) * per_burst; ++i) sum += latencies[i];
    best = std::max(best, static_cast<double>(per_burst) / sum);
  }
  return best;
}

}  // namespace

void run_workload(const Args& args, Report& report, Workload& w) {
  const std::size_t mixes = w.mixes.size();

  // Untimed references: each mix's plain run (crash time, byte-identity
  // baseline), its checkpointed run with frames on disk for the resumes, and
  // a journaled submit burst.
  std::vector<core::MultiStudyResult> plain;
  std::vector<std::string> plain_fp;
  for (std::size_t m = 0; m < mixes; ++m) {
    StudyMix& mix = w.mixes[m];
    mix.dir = args.state_dir + "/ckpt-" + std::to_string(m);
    plain.push_back(run_plain(mix, nullptr));
    plain_fp.push_back(fingerprint(plain.back()));
    if (w.crash_at_half) {
      mix.crash_at = util::SimTime::seconds(0.5 * plain.back().total_time.to_seconds());
    }
    if (w.check_mix) w.check_mix(mix, plain.back(), report);
    const auto on_disk = run_recover(mix, nullptr, /*on_disk=*/true);
    if (fingerprint(on_disk.result) != plain_fp[m]) {
      report.fail("mix " + std::to_string(m) + ": run with frames on disk differs from plain");
    }
  }
  const std::string journal_dir = args.state_dir + "/journal";
  std::size_t journal_bytes = 0;
  (void)submit_burst(journal_dir, w.burst_specs, 64, nullptr, report, &journal_bytes);

  Tracer tracer;
  std::vector<ItemRun> first_runs(w.items.size());
  std::vector<core::RecoverableRunResult> first_recover(mixes);
  std::vector<std::string> first_resume(mixes);
  std::vector<std::vector<double>> burst_latencies(2);
  std::vector<double> journal_latencies;

  const auto make_ops = [&](Tracer* t, bool keep) {
    OpSet set;
    const std::size_t k = t != nullptr ? 1 : 0;
    switch (w.counted) {
      case Counted::Items:
        for (std::size_t i = 0; i < w.items.size(); ++i) {
          set.ops.push_back({w.items[i].label, [&, i, t, keep] {
                               ItemRun run = run_item(w.items[i], t);
                               std::string fp = fingerprint(run.result);
                               if (keep) first_runs[i] = std::move(run);
                               return fp;
                             }});
        }
        break;
      case Counted::Batch:
        set.ops.push_back({"batch", [&, t, keep] { return w.batch(t, keep); }});
        break;
      case Counted::Plain:
        for (std::size_t m = 0; m < mixes; ++m) {
          set.ops.push_back({"plain-" + std::to_string(m),
                             [&, m, t] { return fingerprint(run_plain(w.mixes[m], t)); }});
        }
        break;
    }
    set.runs = set.ops.size();
    set.recover = set.ops.size();
    for (std::size_t m = 0; m < mixes; ++m) {
      set.ops.push_back({"recover-" + std::to_string(m), [&, m, t, keep] {
                           auto run = run_recover(w.mixes[m], t);
                           std::string fp = fingerprint(run.result);
                           if (keep) first_recover[m] = std::move(run);
                           return fp;
                         }});
    }
    set.resume = set.ops.size();
    for (std::size_t m = 0; m < mixes; ++m) {
      set.ops.push_back({"resume-" + std::to_string(m), [&, m, t, keep] {
                           std::string fp = fingerprint(run_resume(w.mixes[m], t).result);
                           if (keep) first_resume[m] = fp;
                           return fp;
                         }});
    }
    set.ops.push_back({"burst", [&, t, k] {
                         auto lat = submit_burst("", w.burst_specs, w.burst_submits, t, report);
                         burst_latencies[k].insert(burst_latencies[k].end(), lat.begin(),
                                                   lat.end());
                         return std::to_string(lat.size());
                       }});
    if (w.known_fault) set.ops.push_back({"known-fault", w.known_fault});
    return set;
  };

  const OpSet untraced = make_ops(nullptr, !args.trace);
  const std::size_t n = untraced.ops.size();
  std::vector<Op> ops = untraced.ops;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<LayerTotals> span_rounds;
  std::vector<double> events_rounds;
  std::vector<double> cache_rounds;
  if (args.trace) {
    const OpSet traced = make_ops(&tracer, true);
    for (std::size_t i = 0; i < n; ++i) pairs.push_back({i, n + i});
    ops.insert(ops.end(), traced.ops.begin(), traced.ops.end());
  }
  const auto after_round = [&](std::size_t) {
    if (!args.trace) return;
    span_rounds.push_back(tracer.take());
    events_rounds.push_back(static_cast<double>(tracer.sink.events.exchange(0)));
    cache_rounds.push_back(static_cast<double>(tracer.take_cache_entries()));
    // The same burst journaled on disk, for the journal's cost: outside the
    // ops, so a traced round fails the same share of ops as an untraced one.
    auto lat = submit_burst(journal_dir, w.burst_specs, w.burst_submits, nullptr, report,
                            &journal_bytes);
    journal_latencies.insert(journal_latencies.end(), lat.begin(), lat.end());
  };
  const RoundTimes times = run_rounds(ops, args.seconds, 3, report, pairs, after_round);

  // Checks on the program's outputs: round 0's (run_rounds checked that every
  // later round reproduced it).
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const core::ExperimentResult& r = first_runs[i].result;
    check_experiment(r, *w.items[i].trace, w.items[i].options.machines, report,
                     w.items[i].label, first_runs[i].clones);
    std::fprintf(stderr, "%-22s reached=%d ttt=%.1f min jobs=%zu\n",
                 w.items[i].label.c_str(), r.reached_target ? 1 : 0,
                 r.time_to_target.to_minutes(), r.jobs_started);
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::fprintf(stderr, "op %-22s fastest %.4f s median %.4f s over %zu rounds\n",
                 ops[i].name.c_str(), times.fastest(i), median(times.seconds[i]),
                 times.rounds);
  }
  Layers layers;
  for (std::size_t m = 0; m < mixes; ++m) {
    const std::string what = "mix " + std::to_string(m) + ": ";
    if (fingerprint(first_recover[m].result) != plain_fp[m]) {
      report.fail(what + "crash-recovered run differs from plain");
    }
    if (first_recover[m].recovery.coordinator_crashes != 1) {
      report.fail(what + "the coordinator crash did not fire");
    }
    if (first_resume[m] != plain_fp[m]) report.fail(what + "resumed run differs from plain");
    const FrameCheck frames = check_frames(w.mixes[m].dir, args.trace ? &tracer : nullptr,
                                           report);
    layers.ckpt_frames += static_cast<double>(frames.frames);
    layers.ckpt_bytes += static_cast<double>(frames.bytes);
    layers.ckpt_encode_ms += frames.encode_ms / static_cast<double>(mixes);
    layers.ckpt_decode_ms += frames.decode_ms / static_cast<double>(mixes);
  }
  if (!args.trace) {
    if (w.finish) w.finish(report, nullptr, tracer);
    const std::size_t runs = w.counted == Counted::Items   ? w.items.size()
                             : w.counted == Counted::Batch ? w.batch_runs
                                                           : mixes;
    double setup_s = w.setup_s;
    for (const double s : args.child_setup_s) setup_s = std::min(setup_s, s);
    report.metric("setup_s", setup_s, "s");
    report.metric("runs_per_s", static_cast<double>(runs) / times.fastest_sum(0, untraced.runs),
                  "runs/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("recovery_s",
                  times.fastest_sum(untraced.recover, untraced.recover + mixes) / mixes, "s");
    report.metric("resume_s",
                  times.fastest_sum(untraced.resume, untraced.resume + mixes) / mixes, "s");
    report.metric("submits_per_s", burst_rate(burst_latencies[0], w.burst_submits),
                  "submits/s");
    return;
  }

  // Per-layer figures (traced run).
  (void)tracer.take();
  layers.trace_s = w.trace_s;
  layers.from_spans(span_rounds);
  for (const auto& run : first_runs) add_cluster_counts(layers, run.result);
  if (w.counted == Counted::Plain) {
    for (const auto& result : plain) add_cluster_counts(layers, result.aggregate());
  }
  layers.obs_events = median(events_rounds);
  layers.cache_entries = median(cache_rounds);
  layers.trace_overhead_s = times.fastest_sum(n, 2 * n) - times.fastest_sum(0, n);
  for (std::size_t m = 0; m < mixes; ++m) {
    layers.rebalances += static_cast<double>(plain[m].rebalances);
    for (const auto& study : plain[m].studies) {
      layers.lease_grants += static_cast<double>(study.result.lease_grants);
    }
  }
  const auto& lat = burst_latencies[1];
  layers.submit_ms = 1000.0 * median(lat);
  layers.submit_ms_p99 = 1000.0 * quantile(lat, 0.99);
  layers.journal_submit_ms = 1000.0 * median(journal_latencies);
  layers.journal_bytes = static_cast<double>(journal_bytes);
  if (w.finish) w.finish(report, &layers, tracer);
  layers.emit(report);
}

}  // namespace pb
