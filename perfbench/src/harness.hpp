// Measurement harness shared by the workloads: command-line arguments, the
// result report (the one JSON line the benchmark prints last), round-based
// timing with per-round determinism checks, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `from`.
[[nodiscard]] double since(Clock::time_point from);

/// Pin the calling thread, and every thread it starts later, to one CPU: the
/// one that runs a short probe (an LSQ prediction) fastest right now.
/// Returns that CPU's probe time (0 when the CPUs cannot be listed).
/// run_rounds() calls it before every op.
double pin_to_fastest_cpu();

/// Before the cold set-up: probe every CPU for a moment to learn how fast one
/// runs the probe when nothing competes with it, then wait (a few seconds at
/// most) until one does, and pin to it.
void pin_to_quiet_cpu();

/// Process-start reference for setup_s: main() stamps it after
/// pin_to_quiet_cpu() and again before its own set-up; a cold_setups() child
/// stamps its own.
[[nodiscard]] Clock::time_point& process_start();

/// Cold set-ups in `children` forked processes, one after another: each
/// moves to the fastest CPU, stamps its own start and calls `run`, which
/// must reach setup_done(). Returns their set-up times. Fork happens before
/// the caller has done any set-up of its own, so each child's is cold.
[[nodiscard]] std::vector<double> cold_setups(int children, const std::function<void()>& run);

/// The workload's inputs are ready: store the set-up time since
/// process_start() in `setup_s`. In a cold_setups() child, hand it to the
/// parent and exit.
void setup_done(double& setup_s);

/// The command line; hdbench requires every flag.
struct Args {
  std::string workload;
  std::uint64_t seed{};
  double seconds{};
  bool trace{};
  /// Scratch directory for journals and checkpoint frames (inside the
  /// checkout; created and removed by the benchmark).
  std::string state_dir;
  /// Set-up times of the cold_setups() children.
  std::vector<double> child_setup_s;
};

/// Everything one run reports: correctness, operation counts, and metrics in
/// the order they were set.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A check of the program's output failed: the run is not correct.
  void fail(const std::string& why);
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::string json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// One timed operation. `run` performs it and returns a fingerprint of the
/// program's output, which must be the same in every round.
struct Op {
  std::string name;
  std::function<std::string()> run;
};

/// Wall time of every op in every round: seconds[op][round].
struct RoundTimes {
  std::vector<std::vector<double>> seconds;
  std::size_t rounds = 0;

  /// One op's time in its fastest round.
  [[nodiscard]] double fastest(std::size_t op) const;
  /// Sum over ops [first, last) of each op's fastest time.
  [[nodiscard]] double fastest_sum(std::size_t first, std::size_t last) const;
};

/// Run whole rounds of `ops` (each op once per round, in order) until
/// `budget_s` seconds have passed and at least `min_rounds` rounds are done.
/// Every op counts as attempted; an op that throws counts as failed. A
/// fingerprint that differs from the op's first-round fingerprint fails the
/// report. `pairs` lists (a, b) op indices whose fingerprints must be equal
/// in every round (a traced op and its untraced twin). Before each op the
/// thread moves to the CPU that is fastest now (pin_to_fastest_cpu).
/// `after_round` runs after each round. Neither is timed.
RoundTimes run_rounds(const std::vector<Op>& ops, double budget_s, std::size_t min_rounds,
                      Report& report,
                      const std::vector<std::pair<std::size_t, std::size_t>>& pairs = {},
                      const std::function<void(std::size_t)>& after_round = {});

[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// A deterministic 32-bit mix of (seed, salt) for deriving per-item seeds.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

/// Fisher-Yates shuffle of `xs` drawn from `seed`.
template <class T>
void shuffle(std::vector<T>& xs, std::uint64_t seed) {
  for (std::size_t i = xs.size(); i > 1; --i) {
    std::swap(xs[i - 1], xs[derive(seed, i) % i]);
  }
}

/// "%.17g" — lossless text for a double in fingerprints.
[[nodiscard]] std::string exact(double x);

/// Recreate an empty directory.
void fresh_dir(const std::string& path);

}  // namespace pb
