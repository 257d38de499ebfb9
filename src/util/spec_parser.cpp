#include "util/spec_parser.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace hyperdrive::util {

SpecParser::SpecParser(std::istream& in, std::string format_name)
    : in_(in), format_(std::move(format_name)) {}

bool SpecParser::next_line() {
  std::string raw;
  while (std::getline(in_, raw)) {
    ++line_no_;
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    tokens_.clear();
    tokens_.str(raw);
    if (tokens_ >> directive_) return true;  // skip blank / comment-only lines
  }
  return false;
}

std::string SpecParser::word(const char* what) {
  std::string token;
  if (!(tokens_ >> token)) fail(std::string("missing ") + what);
  return token;
}

std::optional<std::string> SpecParser::optional_word() {
  std::string token;
  if (!(tokens_ >> token)) return std::nullopt;
  return token;
}

double SpecParser::number(const char* what) {
  std::string token;
  if (!(tokens_ >> token)) fail(std::string("missing ") + what);
  if (token == "inf") return std::numeric_limits<double>::infinity();
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(std::string("bad ") + what + " '" + token + "'");
  }
}

std::optional<double> SpecParser::optional_number(const char* what) {
  std::string token;
  if (!(tokens_ >> token)) return std::nullopt;
  if (token == "inf") return std::numeric_limits<double>::infinity();
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(std::string("bad ") + what + " '" + token + "'");
  }
}

std::uint64_t SpecParser::uint64(const char* what) {
  const std::string token = word(what);
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  // from_chars into an unsigned type reads base-10 digits only: a sign,
  // "inf", a fraction, an exponent or a value above 2^64 - 1 all fail here.
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) fail(std::string("bad ") + what + " '" + token + "'");
  return value;
}

void SpecParser::finish_line() {
  std::string trailing;
  if (tokens_ >> trailing) fail("trailing token '" + trailing + "'");
}

void SpecParser::fail(const std::string& what) const {
  throw std::invalid_argument(format_ + " line " + std::to_string(line_no_) + ": " + what);
}

void write_spec_time(std::ostream& out, SimTime t) {
  if (t == SimTime::infinity()) {
    out << "inf";
  } else {
    out << t.to_seconds();
  }
}

}  // namespace hyperdrive::util
