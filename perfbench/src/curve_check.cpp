// Accuracy of the curve layer against ground truth: noiseless curves of known
// parameters, truncated, must be extrapolated by the LSQ predictor to their
// true value at the horizon. sweep checks every family but mmf before its
// timed work; the mmf case misses (a fault of the LSQ fit) and runs as
// sweep's known failing op.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "curve/parametric_models.hpp"
#include "curve/predictor.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

struct Case {
  const char* family;
  std::vector<double> theta;
};

/// Observed prefix and horizon, in epochs.
constexpr std::size_t kObserved = 20;
constexpr std::size_t kHorizon = 60;
/// Largest accepted |predicted mean - true value| at the horizon, in
/// normalized performance units (1 = the whole accuracy range). A fit that
/// recovers the curve lands within about 0.001; the bootstrap's smallest
/// noise band adds about 0.0003 to the mean.
constexpr double kTolerance = 0.005;

// Rising, saturating curves inside each family's parameter box.
const Case kMmf = {"mmf", {0.85, 0.10, 0.20, 1.30}};
const std::vector<Case> kCases = {
    {"pow3", {0.80, 0.60, 0.70}},
    {"log_power", {0.85, 1.50, -1.20}},
    {"hill3", {0.90, 1.50, 8.00}},
    {"exp4", {0.90, 0.50, -0.30, 0.60}},
    {"janoschek", {0.88, 0.10, 0.15, 0.90}},
    {"weibull", {0.90, 0.10, 0.08, 1.20}},
    {"ilog2", {0.90, 0.60}},
};

/// |predicted mean - truth| at the horizon for one case.
double horizon_error(const Case& c) {
  const auto models = curve::make_models({c.family});
  std::vector<double> ys;
  for (std::size_t x = 1; x <= kObserved; ++x) {
    ys.push_back(models[0]->eval(static_cast<double>(x), c.theta));
  }
  const double truth = models[0]->eval(static_cast<double>(kHorizon), c.theta);
  // The family alone, without the optimistic slope continuations: on a
  // noiseless prefix the bootstrap collapses onto the fitted curve.
  curve::PredictorConfig config;
  config.model_names = {c.family};
  config.lsq_optimistic_fraction = 0.0;
  const auto predictor = curve::make_lsq_predictor(config);
  const std::vector<double> future = {static_cast<double>(kHorizon)};
  const curve::CurvePrediction prediction =
      predictor->predict(ys, future, static_cast<double>(kHorizon));
  return std::fabs(prediction.mean_at(0) - truth);
}

}  // namespace

void check_curve_accuracy(Report& report) {
  for (const Case& c : kCases) {
    const double error = horizon_error(c);
    std::fprintf(stderr, "curve check %-10s error %.2e\n", c.family, error);
    if (!(error <= kTolerance)) {
      report.fail(std::string("LSQ fit of ") + c.family + " misses the horizon value by " +
                  exact(error));
    }
  }
}

std::string check_mmf_fit() {
  const double error = horizon_error(kMmf);
  if (!(error <= kTolerance)) {
    throw std::runtime_error("LSQ fit of mmf misses the horizon value by " + exact(error));
  }
  return exact(error);
}

}  // namespace pb
