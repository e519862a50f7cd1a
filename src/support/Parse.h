//===- support/Parse.h - Strict CLI value parsing -------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Strict parsing for command-line flag values and the text formats.
/// std::strtoull silently accepts trailing garbage ("12x" parses as 12),
/// leading whitespace, signs, and saturates on overflow — all of which
/// turn a typo into a quietly wrong run. Every numeric flag of the
/// bundled tools, every numeric parameter of a BALIGN_FAULT or
/// BALIGN_CRASH spec, and every number of the CFG and profile text
/// formats goes through parseFlagInt instead, which accepts nothing but a
/// complete, in-range decimal literal. LineTokenizer is the one lexer of
/// those two text formats.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_PARSE_H
#define BALIGN_SUPPORT_PARSE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace balign {

/// Parses \p Text as a non-negative decimal integer. The entire string
/// must consist of digits: empty strings, signs, whitespace, hex/octal
/// prefixes, suffixes ("12x"), and values that do not fit in uint64_t
/// are all rejected with std::nullopt.
std::optional<uint64_t> parseFlagInt(std::string_view Text);

/// Same, additionally rejecting parsed values above \p Max (useful for
/// flags stored in narrower types, e.g. a thread count).
std::optional<uint64_t> parseFlagInt(std::string_view Text, uint64_t Max);

/// Parses \p Text as a non-negative decimal number with an optional
/// fractional part: digits, optionally followed by '.' and more digits
/// ("0", "1.5", "0.25"). As with parseFlagInt, nothing else is accepted:
/// no signs, whitespace, exponents, leading/trailing dots, or suffixes —
/// NaN and infinity are unspellable by construction.
std::optional<double> parseFlagDouble(std::string_view Text);

/// The lexer of the CFG and profile text formats. Lines end at '\n' only,
/// and a final line without one counts only if it is not empty (as
/// std::getline counts lines). '#' starts a comment that runs to the end
/// of its line. The rest of a line splits into tokens at the C locale's
/// whitespace (space, \t, \n, \v, \f, \r), the set istream's >> skips;
/// every other byte, NUL and bytes >= 0x80 included, is a token byte.
/// Tokens are views into the text, which must outlive them.
class LineTokenizer {
public:
  /// Lexes \p Text; fail() reports to \p Error when it is non-null.
  LineTokenizer(std::string_view Text, std::string *Error)
      : Rest(Text), Error(Error) {}

  /// Moves to the next line that holds a token and fills Tokens with its
  /// tokens; returns false at the end of the text.
  bool nextLine();

  /// Stores "line N: <Message>" (N = LineNo) in the error sink, if any;
  /// returns false.
  bool fail(std::string_view Message);

  /// The tokens of the current line.
  std::vector<std::string_view> Tokens;

  /// Lines consumed so far, blank and comment lines included. A parser
  /// may point it at an earlier line before fail().
  unsigned LineNo = 0;

private:
  std::string_view Rest;
  std::string *Error;
};

} // namespace balign

#endif // BALIGN_SUPPORT_PARSE_H
