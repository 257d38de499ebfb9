// hdbench — the repository's benchmark program. One workload per process:
//
//   hdbench --workload sweep|fleet|tenants|service --seed N --seconds S
//           --trace 0|1 --state-dir DIR
//
// Prints progress to stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. perfbench/run.py builds the
// program and hdbench, then runs it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

constexpr int kSetupChildren = 5;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hdbench: %s\nusage: hdbench --workload sweep|fleet|tenants|service --seed N "
               "--seconds S --trace 0|1 --state-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::pin_to_quiet_cpu();
  (void)pb::process_start();
  pb::Args args;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    given.insert(flag);
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--state-dir"}) {
    if (given.count(flag) == 0) usage((std::string(flag) + " is required").c_str());
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  void (*run)(const pb::Args&, pb::Report&) = nullptr;
  if (args.workload == "sweep") run = pb::run_sweep;
  if (args.workload == "fleet") run = pb::run_fleet;
  if (args.workload == "tenants") run = pb::run_tenants;
  if (args.workload == "service") run = pb::run_service;
  if (run == nullptr) usage("unknown workload");

  pb::Report report;
  int status = 0;
  try {
    // setup_s (untraced runs) is the fastest of several cold set-ups: one in
    // each of kSetupChildren forked processes, and this process's own.
    if (!args.trace) {
      args.child_setup_s = pb::cold_setups(kSetupChildren, [&] {
        pb::Report discarded;
        run(args, discarded);
      });
    }
    (void)pb::pin_to_fastest_cpu();
    pb::process_start() = pb::Clock::now();
    pb::fresh_dir(args.state_dir);
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.state_dir, ec);
  if (status != 0) return status;
  std::printf("%s\n", report.json().c_str());
  return 0;
}
