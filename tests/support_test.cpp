//===- tests/support_test.cpp - Support library tests ----------------------===//

#include "align/Pipeline.h"
#include "support/Bytes.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/Parse.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace balign;

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 1000; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(13);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> Sorted = V;
  R.shuffle(V);
  std::vector<int> Resorted = V;
  std::sort(Resorted.begin(), Resorted.end());
  EXPECT_EQ(Resorted, Sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng A(5);
  Rng Child = A.fork();
  // The child stream should not replay the parent's upcoming values.
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == Child.next();
  EXPECT_LT(Same, 2);
}

TEST(StatisticsTest, MeanAndMedian) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(StatisticsTest, Stddev) {
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(StatisticsTest, Percentile) {
  std::vector<double> V{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(V, 25), 20.0);
}

TEST(FormatTest, Counts) {
  EXPECT_EQ(formatCount(999), "999");
  EXPECT_EQ(formatCount(13400), "13.4K");
  EXPECT_EQ(formatCount(11800000), "11.8M");
  EXPECT_EQ(formatCount(100000), "100.0K");
}

TEST(FormatTest, PercentAndFixed) {
  EXPECT_EQ(formatPercent(0.3312), "33.12%");
  EXPECT_EQ(formatPercent(0.0201, 2), "2.01%");
  EXPECT_EQ(formatFixed(1.005, 2), "1.00");
  EXPECT_EQ(formatNormalized(0.6699), "0.670");
}

TEST(FormatTest, EscapesControlBytes) {
  using namespace std::string_literals;
  EXPECT_EQ(escapeControlBytes("line 3: kind 're\0t'"s),
            "line 3: kind 're\\x00t'");
  EXPECT_EQ(escapeControlBytes("\t\n\x1f\x7f"), "\\x09\\x0a\\x1f\\x7f");
  // Printable ASCII and bytes past 0x7f (UTF-8) pass through.
  EXPECT_EQ(escapeControlBytes(" ~\xc3\xa9"), " ~\xc3\xa9");
  EXPECT_EQ(escapeControlBytes(""), "");
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable T;
  T.addColumn("name");
  T.addColumn("value", TextTable::AlignKind::Right);
  T.addRow({"alpha", "1"});
  T.addRow({"b", "12345"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name  | value"), std::string::npos);
  EXPECT_NE(Out.find("alpha |     1"), std::string::npos);
  EXPECT_NE(Out.find("b     | 12345"), std::string::npos);
}

TEST(TableTest, SeparatorRows) {
  TextTable T;
  T.addColumn("x");
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  std::string Out = T.render();
  // Header separator plus the explicit one.
  size_t First = Out.find("-\n");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Out.find("-\n", First + 1), std::string::npos);
}

TEST(BytesTest, PutsAreLittleEndian) {
  std::string Out;
  putU32(Out, 0x01020304u);
  putU64(Out, 0x1122334455667788ULL);
  EXPECT_EQ(std::string("\x04\x03\x02\x01"
                        "\x88\x77\x66\x55\x44\x33\x22\x11",
                        12),
            Out);
}

TEST(BytesTest, ReaderRoundTripsAndRefusesToOverRead) {
  std::string Bytes;
  putU32(Bytes, 0xdeadbeefu);
  putU64(Bytes, ~uint64_t(0));
  Bytes += "tail";
  ByteReader In(Bytes);
  uint32_t A = 0;
  uint64_t B = 0;
  ASSERT_TRUE(In.u32(A));
  ASSERT_TRUE(In.u64(B));
  EXPECT_EQ(0xdeadbeefu, A);
  EXPECT_EQ(~uint64_t(0), B);
  // A failed read consumes nothing and leaves its output alone.
  uint64_t Untouched = 7;
  EXPECT_FALSE(In.u64(Untouched));
  EXPECT_EQ(7u, Untouched);
  EXPECT_EQ(4u, In.remaining());
  std::string Copy;
  EXPECT_FALSE(In.bytes(5, Copy));
  ASSERT_TRUE(In.bytes(4, Copy));
  EXPECT_EQ("tail", Copy);
  EXPECT_TRUE(In.atEnd());
  uint8_t C = 0;
  EXPECT_FALSE(In.u8(C));
  std::string_view View;
  EXPECT_FALSE(In.bytes(1, View));
  EXPECT_TRUE(In.bytes(0, View));
}

TEST(ParseFlagIntTest, AcceptsCompleteDecimalLiterals) {
  EXPECT_EQ(parseFlagInt("0"), 0u);
  EXPECT_EQ(parseFlagInt("1"), 1u);
  EXPECT_EQ(parseFlagInt("42"), 42u);
  EXPECT_EQ(parseFlagInt("007"), 7u);
  EXPECT_EQ(parseFlagInt("18446744073709551615"), UINT64_MAX);
}

TEST(ParseFlagIntTest, RejectsEverythingStrtoullAccepts) {
  EXPECT_FALSE(parseFlagInt(""));
  EXPECT_FALSE(parseFlagInt("12x"));   // Trailing garbage.
  EXPECT_FALSE(parseFlagInt("x12"));
  EXPECT_FALSE(parseFlagInt(" 12"));   // Leading whitespace.
  EXPECT_FALSE(parseFlagInt("12 "));
  EXPECT_FALSE(parseFlagInt("+12"));   // Signs.
  EXPECT_FALSE(parseFlagInt("-1"));
  EXPECT_FALSE(parseFlagInt("0x10"));  // Hex prefix.
  EXPECT_FALSE(parseFlagInt("1e3"));   // Scientific notation.
  EXPECT_FALSE(parseFlagInt("1.5"));
  EXPECT_FALSE(parseFlagInt("1_000"));
}

TEST(ParseFlagIntTest, RejectsOverflow) {
  // UINT64_MAX + 1 and friends must not wrap or saturate.
  EXPECT_FALSE(parseFlagInt("18446744073709551616"));
  EXPECT_FALSE(parseFlagInt("99999999999999999999"));
  EXPECT_FALSE(parseFlagInt("184467440737095516150"));
  EXPECT_EQ(parseFlagInt("18446744073709551615"), UINT64_MAX);
}

TEST(ParseFlagIntTest, BoundedOverloadEnforcesMax) {
  EXPECT_EQ(parseFlagInt("8", 64), 8u);
  EXPECT_EQ(parseFlagInt("64", 64), 64u);
  EXPECT_FALSE(parseFlagInt("65", 64));
  EXPECT_FALSE(parseFlagInt("18446744073709551615", 64));
}

TEST(ParseFlagIntTest, BoundedOverloadBoundaries) {
  // Value == Max is in range, including at both extremes of uint64_t.
  EXPECT_EQ(parseFlagInt("18446744073709551615", UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parseFlagInt("0", 0), 0u);
  EXPECT_FALSE(parseFlagInt("1", 0));
  // Rejections are syntax-first: junk fails even when it "would fit".
  EXPECT_FALSE(parseFlagInt("", 64));
  EXPECT_FALSE(parseFlagInt("+8", 64));
  EXPECT_FALSE(parseFlagInt("\t8", 64));
  EXPECT_FALSE(parseFlagInt("0x8", 64));
}

namespace {

/// One lexed text: (line number, tokens) for every line with a token,
/// then the line count at the end of the text.
using LexedText = std::vector<std::pair<unsigned, std::vector<std::string>>>;

/// The lexer the text formats used before LineTokenizer: std::getline per
/// line, the line cut at its first '#', then istream >> per token.
LexedText lexWithStreams(const std::string &Text) {
  LexedText Out;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    Line.resize(std::min(Line.size(), Line.find('#')));
    std::istringstream LineIn(Line);
    std::vector<std::string> Tokens;
    std::string Token;
    while (LineIn >> Token)
      Tokens.push_back(Token);
    if (!Tokens.empty())
      Out.emplace_back(LineNo, std::move(Tokens));
  }
  Out.emplace_back(LineNo, std::vector<std::string>());
  return Out;
}

LexedText lexWithTokenizer(const std::string &Text) {
  LexedText Out;
  LineTokenizer P(Text, nullptr);
  while (P.nextLine())
    Out.emplace_back(P.LineNo, std::vector<std::string>(P.Tokens.begin(),
                                                        P.Tokens.end()));
  Out.emplace_back(P.LineNo, std::vector<std::string>());
  return Out;
}

} // namespace

TEST(LineTokenizerTest, LexesLikeGetlineAndStreamExtraction) {
  // Random texts over every C-locale space, the comment mark, NUL, bytes
  // >= 0x80 (0x85 and 0xa0 are spaces in some other locales) and word
  // bytes, with and without a final '\n'.
  const char Alphabet[] = {' ',  '\t', '\n',   '\v',   '\f',   '\r',
                           '#',  '\0', '\x80', '\x85', '\xa0', '\xff',
                           'a',  'b',  ':',    '7'};
  Rng R(2024);
  for (int I = 0; I != 20000; ++I) {
    std::string Text(R.nextIndex(48), ' ');
    for (char &C : Text)
      C = Alphabet[R.nextIndex(std::size(Alphabet))];
    ASSERT_EQ(lexWithStreams(Text), lexWithTokenizer(Text)) << I;
  }
  for (const char *Text : {"", "\n", "a", "a\n", "a\n\n", " \n#x", "#\n a"})
    EXPECT_EQ(lexWithStreams(Text), lexWithTokenizer(Text)) << Text;
}

TEST(LineTokenizerTest, FailNamesTheCurrentLine) {
  std::string Error;
  LineTokenizer P("x\n\n  y z # c\n", &Error);
  ASSERT_TRUE(P.nextLine());
  ASSERT_TRUE(P.nextLine());
  EXPECT_EQ(3u, P.LineNo);
  EXPECT_EQ((std::vector<std::string_view>{"y", "z"}), P.Tokens);
  EXPECT_FALSE(P.fail("bad 'y'"));
  EXPECT_EQ("line 3: bad 'y'", Error);
  EXPECT_FALSE(P.nextLine());
  EXPECT_EQ(3u, P.LineNo);
}

namespace {

/// argv builder for the Flags helpers: keeps the strings alive and
/// hands out the mutable char** shape main() receives.
struct FakeArgv {
  explicit FakeArgv(std::vector<std::string> Args) : Store(std::move(Args)) {
    for (std::string &A : Store)
      Ptrs.push_back(A.data());
  }
  int argc() { return static_cast<int>(Ptrs.size()); }
  char **argv() { return Ptrs.data(); }
  std::vector<std::string> Store;
  std::vector<char *> Ptrs;
};

} // namespace

TEST(FlagsTest, FlagValueConsumesNextSlot) {
  FakeArgv A({"tool", "--out", "file.json", "tail"});
  int I = 1;
  const char *V = flagValue("--out", A.argc(), A.argv(), I);
  ASSERT_NE(V, nullptr);
  EXPECT_STREQ(V, "file.json");
  EXPECT_EQ(I, 2); // Points at the consumed value, loop ++I moves on.
}

TEST(FlagsTest, FlagValueAtEndOfArgvFailsWithoutAdvancing) {
  FakeArgv A({"tool", "--out"});
  int I = 1;
  EXPECT_EQ(flagValue("--out", A.argc(), A.argv(), I), nullptr);
  EXPECT_EQ(I, 1); // Must not walk past argv.
}

TEST(FlagsTest, FlagUIntParsesBoundedValue) {
  FakeArgv A({"tool", "--threads", "8"});
  int I = 1;
  uint64_t Out = 0;
  EXPECT_TRUE(flagUInt("--threads", A.argc(), A.argv(), I, Out, 64));
  EXPECT_EQ(Out, 8u);
  EXPECT_EQ(I, 2);
}

TEST(FlagsTest, FlagUIntAcceptsValueEqualToMax) {
  FakeArgv A({"tool", "--threads", "64"});
  int I = 1;
  uint64_t Out = 0;
  EXPECT_TRUE(flagUInt("--threads", A.argc(), A.argv(), I, Out, 64));
  EXPECT_EQ(Out, 64u);
}

TEST(FlagsTest, FlagUIntLeavesOutUntouchedOnFailure) {
  uint64_t Out = 1234;
  {
    FakeArgv A({"tool", "--threads", "sixty"});
    int I = 1;
    EXPECT_FALSE(flagUInt("--threads", A.argc(), A.argv(), I, Out, 64));
  }
  {
    FakeArgv A({"tool", "--threads", "65"});
    int I = 1;
    EXPECT_FALSE(flagUInt("--threads", A.argc(), A.argv(), I, Out, 64));
  }
  {
    FakeArgv A({"tool", "--threads"});
    int I = 1;
    EXPECT_FALSE(flagUInt("--threads", A.argc(), A.argv(), I, Out, 64));
    EXPECT_EQ(I, 1);
  }
  EXPECT_EQ(Out, 1234u);
}

TEST(SeedStreamTest, DerivedSeedsArePairwiseDistinct) {
  const uint64_t Root = 0x7357u;
  std::set<uint64_t> Seeds;
  for (size_t I = 0; I != 1024; ++I)
    Seeds.insert(derivedSolverSeed(Root, I));
  EXPECT_EQ(Seeds.size(), 1024u);
}

TEST(SeedStreamTest, DistinctForManyRootSeeds) {
  // Different (root, index) pairs a user might plausibly combine must
  // not alias either.
  std::set<uint64_t> Seeds;
  for (uint64_t Root : {0ull, 1ull, 0x7357ull, 0xdeadbeefull})
    for (size_t I = 0; I != 256; ++I)
      Seeds.insert(derivedSolverSeed(Root, I));
  EXPECT_EQ(Seeds.size(), 4u * 256u);
}

TEST(SeedStreamTest, StreamsAreUncorrelated) {
  // Adjacent derived seeds differ only by a constant, so the *generator*
  // must decorrelate them: first outputs all distinct, and adjacent
  // streams share (essentially) no values among their first 64 draws.
  const uint64_t Root = 0x7357u;
  std::set<uint64_t> FirstDraws;
  for (size_t I = 0; I != 1024; ++I)
    FirstDraws.insert(Rng(derivedSolverSeed(Root, I)).next());
  EXPECT_EQ(FirstDraws.size(), 1024u);

  for (size_t I = 0; I + 1 != 64; ++I) {
    Rng A(derivedSolverSeed(Root, I));
    Rng B(derivedSolverSeed(Root, I + 1));
    std::set<uint64_t> SeenA;
    for (int K = 0; K != 64; ++K)
      SeenA.insert(A.next());
    int Shared = 0;
    for (int K = 0; K != 64; ++K)
      Shared += SeenA.count(B.next()) ? 1 : 0;
    EXPECT_LT(Shared, 2) << "streams " << I << " and " << I + 1;
  }
}

TEST(SeedStreamTest, AdjacentStreamOutputsAvalanche) {
  // Bitwise correlation smoke test: xor of the first outputs of adjacent
  // streams should have close to half its bits set.
  const uint64_t Root = 1;
  double TotalBits = 0;
  const int Pairs = 256;
  for (size_t I = 0; I != Pairs; ++I) {
    uint64_t X = Rng(derivedSolverSeed(Root, I)).next();
    uint64_t Y = Rng(derivedSolverSeed(Root, I + 1)).next();
    TotalBits += __builtin_popcountll(X ^ Y);
  }
  double MeanBits = TotalBits / Pairs;
  EXPECT_GT(MeanBits, 24.0); // 32 expected for independent streams.
  EXPECT_LT(MeanBits, 40.0);
}
