//===- support/Parse.cpp --------------------------------------------------===//

#include "support/Parse.h"

using namespace balign;

/// The C locale's whitespace: the bytes istream's >> skips.
static bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

bool LineTokenizer::nextLine() {
  while (!Rest.empty()) {
    size_t End = Rest.find('\n');
    std::string_view Line = Rest.substr(0, End);
    Rest.remove_prefix(End == std::string_view::npos ? Rest.size() : End + 1);
    ++LineNo;
    Line = Line.substr(0, Line.find('#'));
    Tokens.clear();
    size_t I = 0;
    while (true) {
      while (I != Line.size() && isSpace(Line[I]))
        ++I;
      if (I == Line.size())
        break;
      size_t Begin = I;
      while (I != Line.size() && !isSpace(Line[I]))
        ++I;
      Tokens.push_back(Line.substr(Begin, I - Begin));
    }
    if (!Tokens.empty())
      return true;
  }
  return false;
}

bool LineTokenizer::fail(std::string_view Message) {
  if (Error) {
    *Error = "line " + std::to_string(LineNo) + ": ";
    Error->append(Message);
  }
  return false;
}

std::optional<uint64_t> balign::parseFlagInt(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return std::nullopt; // Would overflow uint64_t.
    Value = Value * 10 + Digit;
  }
  return Value;
}

std::optional<uint64_t> balign::parseFlagInt(std::string_view Text,
                                             uint64_t Max) {
  std::optional<uint64_t> Value = parseFlagInt(Text);
  if (Value && *Value > Max)
    return std::nullopt;
  return Value;
}

std::optional<double> balign::parseFlagDouble(std::string_view Text) {
  size_t Dot = Text.find('.');
  std::string_view Whole = Text.substr(0, Dot);
  std::optional<uint64_t> Int = parseFlagInt(Whole);
  if (!Int)
    return std::nullopt;
  double Value = static_cast<double>(*Int);
  if (Dot == std::string_view::npos)
    return Value;
  std::string_view Frac = Text.substr(Dot + 1);
  if (Frac.empty())
    return std::nullopt; // "1." is not a complete literal.
  double Scale = 1.0;
  for (char C : Frac) {
    if (C < '0' || C > '9')
      return std::nullopt;
    Scale /= 10.0;
    Value += static_cast<double>(C - '0') * Scale;
  }
  return Value;
}
