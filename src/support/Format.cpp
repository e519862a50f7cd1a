//===- support/Format.cpp -------------------------------------------------===//

#include "support/Format.h"

#include <cmath>
#include <cstdio>

using namespace balign;

std::string balign::formatFixed(double Value, unsigned Decimals) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
  return Buffer;
}

std::string balign::formatCount(uint64_t Value) {
  if (Value >= 1000000)
    return formatFixed(static_cast<double>(Value) / 1e6, 1) + "M";
  if (Value >= 1000)
    return formatFixed(static_cast<double>(Value) / 1e3, 1) + "K";
  return std::to_string(Value);
}

std::string balign::formatPercent(double Ratio, unsigned Decimals) {
  return formatFixed(Ratio * 100.0, Decimals) + "%";
}

std::string balign::formatNormalized(double Value) {
  return formatFixed(Value, 3);
}

std::string balign::escapeControlBytes(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    unsigned char Byte = static_cast<unsigned char>(C);
    if (Byte >= 0x20 && Byte != 0x7f) {
      Out += C;
      continue;
    }
    char Buffer[5];
    std::snprintf(Buffer, sizeof(Buffer), "\\x%02x", Byte);
    Out += Buffer;
  }
  return Out;
}
