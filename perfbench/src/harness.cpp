#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <thread>

#include "curve/predictor.hpp"

namespace pb {

double since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double pin_to_fastest_cpu() {
  // One CPU at a time: on a shared virtual machine a wakeup across CPUs
  // (client <-> server, worker <-> server) costs 0.1-1 ms and varies with the
  // host's load, which would swamp the service's own cost per request. The
  // CPUs also differ from second to second: a busy sibling hyperthread makes
  // one run the same code 1.5x slower than another. So take the CPU that
  // runs a short probe fastest now.
  static cpu_set_t allowed;
  static const bool known = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  if (!known) return 0.0;
  static const auto predictor = [] {
    hyperdrive::curve::PredictorConfig config;
    config.lsq_samples = 50;
    return hyperdrive::curve::make_lsq_predictor(config);
  }();
  static const std::vector<double> history = [] {
    std::vector<double> ys;
    for (int x = 1; x <= 20; ++x) ys.push_back(0.8 - 0.6 / (1.0 + 0.1 * x * x));
    return ys;
  }();
  const std::vector<double> future = {40.0};
  int best_cpu = -1;
  double best_s = std::numeric_limits<double>::infinity();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const auto t0 = Clock::now();
    (void)predictor->predict(history, future, 40.0);
    const double probe_s = since(t0);
    if (probe_s < best_s) {
      best_s = probe_s;
      best_cpu = cpu;
    }
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  if (best_cpu >= 0) CPU_SET(best_cpu, &chosen);
  (void)sched_setaffinity(0, sizeof chosen, best_cpu >= 0 ? &chosen : &allowed);
  return best_cpu >= 0 ? best_s : 0.0;
}

void pin_to_quiet_cpu() {
  // Contention comes and goes in phases of about a second and slows a CPU
  // by up to 1.5x. A probe within 15% of the fastest one seen runs on a CPU
  // that nothing competes with.
  constexpr int kCalibrate = 20;
  constexpr double kQuiet = 1.15;
  constexpr double kMaxWait_s = 3.0;
  const auto pause = std::chrono::milliseconds(10);
  double quiet_s = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kCalibrate; ++i) {
    quiet_s = std::min(quiet_s, pin_to_fastest_cpu());
    std::this_thread::sleep_for(pause);
  }
  const auto t0 = Clock::now();
  while (pin_to_fastest_cpu() > kQuiet * quiet_s && since(t0) < kMaxWait_s) {
    std::this_thread::sleep_for(pause);
  }
}

Clock::time_point& process_start() {
  static Clock::time_point start = Clock::now();
  return start;
}

namespace {

/// Write end of the pipe to the parent, in a cold_setups() child.
int setup_pipe = -1;

}  // namespace

std::vector<double> cold_setups(int children, const std::function<void()>& run) {
  std::vector<double> times;
  for (int i = 0; i < children; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      setup_pipe = fds[1];
      (void)pin_to_fastest_cpu();
      process_start() = Clock::now();
      try {
        run();
      } catch (...) {
      }
      _exit(1);  // the set-up failed before setup_done()
    }
    close(fds[1]);
    double s = 0.0;
    const bool got = pid > 0 && read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    close(fds[0]);
    if (pid > 0) (void)waitpid(pid, nullptr, 0);
    if (got) times.push_back(s);
  }
  return times;
}

void setup_done(double& setup_s) {
  setup_s = since(process_start());
  if (setup_pipe < 0) return;
  const bool sent = write(setup_pipe, &setup_s, sizeof setup_s) ==
                    static_cast<ssize_t>(sizeof setup_s);
  _exit(sent ? 0 : 1);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    char num[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof num, "%.10g", v);
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

double RoundTimes::fastest(std::size_t op) const {
  return *std::min_element(seconds.at(op).begin(), seconds.at(op).end());
}

double RoundTimes::fastest_sum(std::size_t first, std::size_t last) const {
  double sum = 0.0;
  for (std::size_t i = first; i < last; ++i) sum += fastest(i);
  return sum;
}

RoundTimes run_rounds(const std::vector<Op>& ops, double budget_s, std::size_t min_rounds,
                      Report& report,
                      const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
                      const std::function<void(std::size_t)>& after_round) {
  RoundTimes times;
  times.seconds.resize(ops.size());
  std::vector<std::string> first(ops.size());
  std::vector<std::string> current(ops.size());
  const auto t0 = Clock::now();
  while (times.rounds < min_rounds || since(t0) < budget_s) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      report.attempted();
      pin_to_fastest_cpu();
      const auto start = Clock::now();
      try {
        current[i] = ops[i].run();
      } catch (const std::exception& e) {
        report.failed();
        current[i] = "<failed>";
        std::fprintf(stderr, "op %s failed: %s\n", ops[i].name.c_str(), e.what());
      }
      times.seconds[i].push_back(since(start));
      if (times.rounds == 0) {
        first[i] = current[i];
      } else if (current[i] != first[i]) {
        report.fail("op " + ops[i].name + " round " + std::to_string(times.rounds) +
                    " did not reproduce its first result");
      }
    }
    for (const auto& [a, b] : pairs) {
      if (current[a] != current[b]) {
        report.fail("ops " + ops[a].name + " and " + ops[b].name + " differ");
      }
    }
    if (after_round) after_round(times.rounds);
    ++times.rounds;
  }
  return times;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the combined input.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  // 32 bits: a study spec's seed is parsed through a double, exact only up
  // to 2^53, and the coordinator replays from spec texts after a crash.
  return (z ^ (z >> 31)) & 0xFFFFFFFFULL;
}

std::string exact(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

}  // namespace pb
