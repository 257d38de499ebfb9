#include "core/study/study_spec.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/spec_parser.hpp"

namespace hyperdrive::core {

StudySpec load_study_spec(std::istream& in) {
  StudySpec spec;
  bool named = false;
  util::SpecParser parser(in, "study spec");
  while (parser.next_line()) {
    const std::string& directive = parser.directive();
    if (directive == "study") {
      spec.name = parser.word("study name");
      named = true;
    } else if (directive == "workload") {
      spec.workload = parser.word("workload name");
    } else if (directive == "policy") {
      spec.policy = parser.word("policy name");
      spec.policy_params.clear();
      while (auto param = parser.optional_word()) {
        if (param->find('=') == std::string::npos) {
          parser.fail("bad policy option '" + *param + "' (want key=value)");
        }
        spec.policy_params.push_back(std::move(*param));
      }
    } else if (directive == "generator") {
      spec.generator = parser.word("generator name");
    } else if (directive == "configs") {
      const double n = parser.number("config count");
      if (n < 1.0 || n != static_cast<double>(static_cast<std::size_t>(n))) {
        parser.fail("config count must be a positive integer");
      }
      spec.configs = static_cast<std::size_t>(n);
    } else if (directive == "target") {
      spec.target = parser.number("target");
    } else if (directive == "deadline") {
      spec.deadline = util::SimTime::seconds(parser.number("deadline"));
    } else if (directive == "weight") {
      spec.weight = parser.number("weight");
      if (!(spec.weight > 0.0) || spec.weight == std::numeric_limits<double>::infinity()) {
        parser.fail("weight must be positive and finite");
      }
    } else if (directive == "seed") {
      spec.seed = parser.uint64("seed");
    } else if (directive == "tmax") {
      spec.tmax = util::SimTime::seconds(parser.number("tmax"));
    } else if (directive == "cancel-at") {
      spec.cancel_at = util::SimTime::seconds(parser.number("cancel time"));
    } else if (directive == "budget") {
      spec.budget_usd = parser.number("budget");
      if (!(spec.budget_usd > 0.0)) parser.fail("budget must be positive");
    } else if (directive == "node-class") {
      spec.node_class = parser.word("node class name");
    } else {
      parser.fail("unknown directive '" + directive + "'");
    }
    parser.finish_line();
  }
  if (!named) parser.fail("missing 'study <name>' directive");
  return spec;
}

void save_study_spec(const StudySpec& spec, std::ostream& out) {
  const auto precision = out.precision(17);
  out << "# HyperDrive study spec\n";
  out << "study " << spec.name << '\n';
  out << "workload " << spec.workload << '\n';
  out << "policy " << spec.policy;
  for (const auto& param : spec.policy_params) out << ' ' << param;
  out << '\n';
  out << "generator " << spec.generator << '\n';
  out << "configs " << spec.configs << '\n';
  if (spec.has_target_override()) out << "target " << spec.target << '\n';
  if (spec.has_deadline()) {
    out << "deadline ";
    util::write_spec_time(out, spec.deadline);
    out << '\n';
  }
  if (spec.weight != 1.0) out << "weight " << spec.weight << '\n';
  out << "seed " << spec.seed << '\n';
  out << "tmax ";
  util::write_spec_time(out, spec.tmax);
  out << '\n';
  if (spec.cancel_at != util::SimTime::infinity()) {
    out << "cancel-at ";
    util::write_spec_time(out, spec.cancel_at);
    out << '\n';
  }
  // New elastic fields (DESIGN.md §15) are omitted at their defaults, so a
  // pre-elastic spec round-trips byte-identically.
  if (spec.budget_usd != std::numeric_limits<double>::infinity()) {
    out << "budget " << spec.budget_usd << '\n';
  }
  if (!spec.node_class.empty()) out << "node-class " << spec.node_class << '\n';
  out.precision(precision);
}

}  // namespace hyperdrive::core
