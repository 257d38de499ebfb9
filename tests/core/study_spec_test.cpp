// Round-trip and error-reporting tests for the study-spec text format
// (README "Study files", DESIGN.md §9): save_study_spec(load_study_spec(t))
// reproduces the text exactly, defaults survive the trip, and malformed
// input fails with a line number.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/study/study_spec.hpp"

namespace hyperdrive::core {
namespace {

using util::SimTime;

StudySpec full_spec() {
  StudySpec spec;
  spec.name = "prod-cifar";
  spec.workload = "cifar10";
  spec.policy = "pop";
  spec.generator = "tpe";
  spec.configs = 64;
  spec.target = 0.925;
  spec.deadline = SimTime::hours(4.5);
  spec.weight = 2.5;
  spec.seed = 42;
  spec.tmax = SimTime::hours(24);
  spec.cancel_at = SimTime::hours(30);
  return spec;
}

std::string save(const StudySpec& spec) {
  std::ostringstream out;
  save_study_spec(spec, out);
  return out.str();
}

StudySpec load(const std::string& text) {
  std::istringstream in(text);
  return load_study_spec(in);
}

void expect_equal(const StudySpec& a, const StudySpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.policy_params, b.policy_params);
  EXPECT_EQ(a.generator, b.generator);
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(std::isnan(a.target), std::isnan(b.target));
  if (!std::isnan(a.target)) EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.tmax, b.tmax);
  EXPECT_EQ(a.cancel_at, b.cancel_at);
  EXPECT_EQ(a.budget_usd, b.budget_usd);
  EXPECT_EQ(a.node_class, b.node_class);
}

TEST(StudySpecIoTest, SaveLoadIsAFixedPoint) {
  const StudySpec spec = full_spec();
  const std::string text = save(spec);
  const StudySpec loaded = load(text);
  expect_equal(spec, loaded);
  EXPECT_EQ(save(loaded), text);
}

TEST(StudySpecIoTest, DefaultsSurviveTheTrip) {
  StudySpec spec;
  spec.name = "plain";
  const StudySpec loaded = load(save(spec));
  expect_equal(spec, loaded);
  EXPECT_FALSE(loaded.has_target_override());
  EXPECT_FALSE(loaded.has_deadline());
  EXPECT_EQ(loaded.cancel_at, SimTime::infinity());
  // Optional directives are omitted, not written as sentinels.
  const std::string text = save(spec);
  EXPECT_EQ(text.find("target"), std::string::npos);
  EXPECT_EQ(text.find("deadline"), std::string::npos);
  EXPECT_EQ(text.find("weight"), std::string::npos);
  EXPECT_EQ(text.find("cancel-at"), std::string::npos);
  EXPECT_EQ(text.find("budget"), std::string::npos);
  EXPECT_EQ(text.find("node-class"), std::string::npos);
}

TEST(StudySpecIoTest, ElasticDirectivesRoundTrip) {
  // budget/node-class (DESIGN.md §15) survive the trip; a spec without them
  // saves byte-identically to the pre-elastic format (checked above).
  StudySpec spec = full_spec();
  spec.budget_usd = 120.5;
  spec.node_class = "gpu-spot";
  const std::string text = save(spec);
  EXPECT_NE(text.find("budget 120.5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("node-class gpu-spot\n"), std::string::npos) << text;
  const StudySpec loaded = load(text);
  expect_equal(spec, loaded);
  EXPECT_EQ(save(loaded), text);

  EXPECT_THROW(load("study a\nbudget 0\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nbudget -3\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nbudget lots\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nnode-class\n"), std::invalid_argument);
  try {
    load("study a\nbudget 0\n");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(StudySpecIoTest, ParsesCommentsBlanksAndInf) {
  const StudySpec spec = load(
      "# a tenant\n"
      "study exp-7   # inline comment\n"
      "\n"
      "workload lunarlander\n"
      "policy bandit\n"
      "deadline inf\n"
      "tmax 3600\n");
  EXPECT_EQ(spec.name, "exp-7");
  EXPECT_EQ(spec.workload, "lunarlander");
  EXPECT_EQ(spec.policy, "bandit");
  EXPECT_FALSE(spec.has_deadline());
  EXPECT_EQ(spec.tmax, SimTime::seconds(3600));
}

TEST(StudySpecIoTest, PolicyOptionsRoundTrip) {
  // Registry policy with key=value options (DESIGN.md §13): the tokens
  // survive the trip verbatim and in order.
  StudySpec spec = full_spec();
  spec.policy = "asha";
  spec.policy_params = {"eta=4", "min-rung=2"};
  const std::string text = save(spec);
  EXPECT_NE(text.find("policy asha eta=4 min-rung=2\n"), std::string::npos);
  const StudySpec loaded = load(text);
  EXPECT_EQ(loaded.policy, "asha");
  EXPECT_EQ(loaded.policy_params, spec.policy_params);
  EXPECT_EQ(save(loaded), text);

  // No options — the line stays byte-identical to the pre-registry format.
  StudySpec bare;
  bare.name = "plain";
  EXPECT_NE(save(bare).find("policy pop\n"), std::string::npos);

  // A policy option that is not key=value is a parse error with a line
  // number, not a silently dropped token.
  EXPECT_THROW(load("study a\npolicy asha eta\n"), std::invalid_argument);
  try {
    load("study a\npolicy asha eta\n");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("key=value"), std::string::npos);
  }
}

TEST(StudySpecIoTest, ErrorsCarryLineNumbers) {
  EXPECT_THROW(load("study a\nbogus 1\n"), std::invalid_argument);
  try {
    load("study a\nbogus 1\n");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(load("study a\ndeadline shortly\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nconfigs 0\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nconfigs 2.5\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nweight 0\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nweight inf\n"), std::invalid_argument);
  EXPECT_THROW(load("study a\nseed\n"), std::invalid_argument);
  EXPECT_THROW(load("study a b\n"), std::invalid_argument);  // trailing token
}

TEST(StudySpecIoTest, SeedsAbove2To53RoundTripExactly) {
  // A double holds integers exactly only up to 2^53; the seed reader must
  // not go through one.
  for (const std::uint64_t seed : {(std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}}) {
    StudySpec spec = full_spec();
    spec.seed = seed;
    const std::string text = save(spec);
    EXPECT_EQ(load(text).seed, seed) << text;
    EXPECT_EQ(save(load(text)), text);
  }
}

TEST(StudySpecIoTest, RejectsSeedsThatAreNotUnsigned64BitDecimals) {
  for (const std::string token :
       {"inf", "-1", "1.5", "1e3", "+7", "0x10", "nan", "18446744073709551616"}) {
    try {
      (void)load("study a\nseed " + token + "\n");
      ADD_FAILURE() << "accepted seed " << token;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "study spec line 2: bad seed '" + token + "'");
    }
  }
}

TEST(StudySpecIoTest, RejectsUnnamedSpec) {
  EXPECT_THROW(load("workload cifar10\n"), std::invalid_argument);
  try {
    load("workload cifar10\n");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("study"), std::string::npos);
  }
}

}  // namespace
}  // namespace hyperdrive::core
