//===- support/Parse.h - Strict CLI value parsing -------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Strict parsing for command-line flag values. std::strtoull silently
/// accepts trailing garbage ("12x" parses as 12), leading whitespace,
/// signs, and saturates on overflow — all of which turn a typo into a
/// quietly wrong run. Every numeric flag of the bundled tools, and every
/// numeric parameter of a BALIGN_FAULT or BALIGN_CRASH spec, goes
/// through parseFlagInt instead, which accepts nothing but a complete,
/// in-range decimal literal.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_PARSE_H
#define BALIGN_SUPPORT_PARSE_H

#include <cstdint>
#include <optional>
#include <string_view>

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

} // namespace balign

#endif // BALIGN_SUPPORT_PARSE_H
