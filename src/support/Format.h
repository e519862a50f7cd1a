//===- support/Format.h - Human-readable number formatting --------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers for the benchmark tables: counts with M/K suffixes
/// (matching the paper's "11.8M executed branches" style), fixed-point
/// decimals, percentages, and normalized ratios; and the escaping the
/// command-line tools print messages with.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_FORMAT_H
#define BALIGN_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <string_view>

namespace balign {

/// Formats \p Value with \p Decimals digits after the point.
std::string formatFixed(double Value, unsigned Decimals);

/// Formats a count using the paper's style: "0.1M", "11.8M", "42.0M" for
/// millions, "3.4K" for thousands, plain digits below 1000.
std::string formatCount(uint64_t Value);

/// Formats \p Ratio (e.g. 0.6421) as a percentage string "64.21%".
std::string formatPercent(double Ratio, unsigned Decimals = 2);

/// Formats a normalized value relative to 1.0, e.g. "0.67".
std::string formatNormalized(double Value);

/// Returns \p Text with every control byte (below 0x20, and 0x7f)
/// written as \xNN. The parsers echo offending input bytes into their
/// messages; escaped, a message prints whole on one line, even past an
/// embedded NUL.
std::string escapeControlBytes(std::string_view Text);

} // namespace balign

#endif // BALIGN_SUPPORT_FORMAT_H
