// SpecParser — the shared line-oriented text-format reader behind the fault
// plan and study spec loaders (and any future "one directive per line"
// format). Handles the common plumbing both formats duplicated: '#'
// comments, blank-line skipping, line numbering, typed token extraction with
// "inf" support, trailing-token rejection, and uniformly formatted errors
// ("<format> line N: <what>") so the existing *_io_test expectations stay
// byte-identical.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <sstream>
#include <string>

#include "util/sim_time.hpp"

namespace hyperdrive::util {

class SpecParser {
 public:
  /// `format_name` prefixes every error ("fault plan", "study spec").
  SpecParser(std::istream& in, std::string format_name);

  /// Advance to the next line with content (comments stripped, blanks
  /// skipped) and read its leading directive. Returns false at end of input.
  bool next_line();
  /// The current line's first token (valid after next_line() returned true).
  [[nodiscard]] const std::string& directive() const noexcept { return directive_; }
  /// 1-based number of the current line (after EOF: of the last line read).
  [[nodiscard]] int line() const noexcept { return line_no_; }

  /// Next token on the current line; fails with "missing <what>".
  std::string word(const char* what);
  /// As word(), but std::nullopt when the line has no tokens left (directives
  /// with a variable-length operand tail, e.g. `policy asha eta=4`).
  std::optional<std::string> optional_word();
  /// Next token as a double, accepting "inf"; fails with "missing <what>" or
  /// "bad <what> '<token>'".
  double number(const char* what);
  /// As number(), but std::nullopt when the line has no tokens left.
  std::optional<double> optional_number(const char* what);
  /// Next token as an exact unsigned 64-bit decimal (digits only: no sign,
  /// fraction, exponent or "inf"); fails with "missing <what>" or
  /// "bad <what> '<token>'", also when the value exceeds 2^64 - 1.
  std::uint64_t uint64(const char* what);
  /// Reject any leftover token ("trailing token '<tok>'"). Call once all the
  /// directive's operands are consumed.
  void finish_line();

  /// Throw std::invalid_argument("<format> line N: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::istream& in_;
  std::string format_;
  std::istringstream tokens_;
  std::string directive_;
  int line_no_ = 0;
};

/// Writes `inf` for unbounded durations, otherwise plain seconds with enough
/// digits that load(save(x)) == x — the saver-side counterpart of the
/// parser's "inf" acceptance, shared by both text formats.
void write_spec_time(std::ostream& out, SimTime t);

}  // namespace hyperdrive::util
