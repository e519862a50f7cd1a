//===- support/Format.h - Human-readable number formatting --------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers for the benchmark tables: counts with M/K suffixes
/// (matching the paper's "11.8M executed branches" style), fixed-point
/// decimals, percentages, and normalized ratios; the escaping the
/// command-line tools print messages with; and JSON string escaping.
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

/// \p Text as the body of a JSON string: `"` and `\` backslash-escaped,
/// \n \t \r as themselves, every other control byte as \u00XX; bytes
/// from 0x20 up pass through. The one JSON string escaper: lint reports,
/// align_tool's batch lint array and the trace exporters all use it. It
/// is inline because balign_trace sits below balign_support.
inline std::string jsonEscaped(std::string_view Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n' || C == '\t' || C == '\r') {
      Out += '\\';
      Out += C == '\n' ? 'n' : C == '\t' ? 't' : 'r';
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += "\\u00";
      Out += "0123456789abcdef"[C >> 4];
      Out += "0123456789abcdef"[C & 0xf];
    } else {
      Out += C;
    }
  }
  return Out;
}

} // namespace balign

#endif // BALIGN_SUPPORT_FORMAT_H
