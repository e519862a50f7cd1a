//===- tests/parser_pin_test.cpp - Pinned outcomes of the text parsers ----===//
//
// Seeded mutants of every bundled CFG and profile and of the serve corpus,
// run through parseProgram and parseProgramProfile. Each seed file's
// digest covers every mutant's outcome: the printed result when it is
// accepted, the exact error text (with its line number) when it is
// rejected. The digests were recorded from the build before the parsers
// shared one tokenizer, so a parser that accepts, rejects or words a
// message differently moves a pin.
//
//===--------------------------------------------------------------------===//

#include "cache/Fingerprint.h"
#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "serve/Oneshot.h"

#include "ServeCorpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <set>
#include <string>

using namespace balign;

namespace {

constexpr uint64_t MutantsPerFile = 2000;

/// Bytes a mutation writes over one byte of the text: every separator
/// the tokenizer knows, the comment mark, the grammar's punctuation,
/// digits and NUL.
constexpr char Replacements[] = {' ', '\t', '\r', '\v', '\f', '\n', '#',
                                 ':', '-',  '>',  '{',  '}',  '0',  '7',
                                 '9', '\0'};

/// Numbers a mutation inserts, or writes over a run of digits: one past
/// the block-size limit, zero-padded counts of 21 and 20 digits (rejected
/// and accepted by the profile's length cap), and 2^64.
const char *const Numbers[] = {"268435457", "000000000000000000001",
                               "00000000000000000009",
                               "18446744073709551616"};

/// Mutant \p Seed of \p Text: one to three seeded edits, each a byte
/// replaced, bytes deleted, the text truncated, a line duplicated or a
/// number inserted.
std::string mutant(const std::string &Text, uint64_t Seed) {
  Rng R(Seed);
  std::string M = Text;
  unsigned Edits = 1 + static_cast<unsigned>(R.nextIndex(3));
  for (unsigned E = 0; E != Edits && !M.empty(); ++E) {
    size_t Pos = R.nextIndex(M.size());
    uint64_t Kind = R.nextIndex(20);
    if (Kind < 8) {
      M[Pos] = Replacements[R.nextIndex(std::size(Replacements))];
    } else if (Kind < 12) {
      M.erase(Pos, 1 + R.nextIndex(6));
    } else if (Kind < 13) {
      M.resize(Pos);
    } else if (Kind < 16) {
      size_t Begin = M.rfind('\n', Pos);
      Begin = Begin == std::string::npos ? 0 : Begin + 1;
      size_t End = M.find('\n', Pos);
      End = End == std::string::npos ? M.size() : End + 1;
      std::string Line = M.substr(Begin, End - Begin);
      if (Line.empty() || Line.back() != '\n')
        Line += '\n';
      M.insert(Begin, Line);
    } else {
      const char *Number = Numbers[R.nextIndex(std::size(Numbers))];
      size_t Begin = Pos, End = Pos;
      while (Begin != 0 && M[Begin - 1] >= '0' && M[Begin - 1] <= '9')
        --Begin;
      while (End != M.size() && M[End] >= '0' && M[End] <= '9')
        ++End;
      M.replace(Begin, End - Begin, Number);
    }
  }
  return M;
}

struct MutantOutcomes {
  std::string Digest;
  uint64_t Accepted = 0;
};

MutantOutcomes programOutcomes(const std::string &Text, uint64_t FileSeed) {
  Hasher H;
  MutantOutcomes Out;
  for (uint64_t I = 0; I != MutantsPerFile; ++I) {
    std::string Error;
    std::optional<Program> Prog =
        parseProgram(mutant(Text, FileSeed * MutantsPerFile + I), &Error);
    H.u8(Prog.has_value());
    H.str(Prog ? printProgram(*Prog) : Error);
    Out.Accepted += Prog.has_value();
  }
  Out.Digest = H.digest().str();
  return Out;
}

MutantOutcomes profileOutcomes(const Program &Prog, const std::string &Text,
                               uint64_t FileSeed) {
  Hasher H;
  MutantOutcomes Out;
  for (uint64_t I = 0; I != MutantsPerFile; ++I) {
    std::string Error;
    std::optional<ProgramProfile> Profile = parseProgramProfile(
        Prog, mutant(Text, FileSeed * MutantsPerFile + I), &Error);
    H.u8(Profile.has_value());
    H.str(Profile ? printProgramProfile(Prog, *Profile) : Error);
    Out.Accepted += Profile.has_value();
  }
  Out.Digest = H.digest().str();
  return Out;
}

/// The bundled files ending in \p Extension, sorted.
std::set<std::string> bundledFiles(const std::string &Extension) {
  std::set<std::string> Names;
  for (const auto &Entry :
       std::filesystem::directory_iterator(BALIGN_DATA_DIR))
    if (Entry.path().extension() == Extension)
      Names.insert(Entry.path().filename().string());
  return Names;
}

struct Pin {
  const char *Input, *Digest;
  uint64_t Accepted;
};

} // namespace

TEST(TextFormatPinTest, MutantsOfEveryCfgKeepTheirOutcomes) {
  static const Pin Pins[] = {
      {"defect_irreducible.cfg", "1bb36e7db9ec31d3:d69132f1b5b7e844", 983},
      {"defect_overflow.cfg", "8d9f4094c4f12ae4:929198e1837963d7", 1014},
      {"defect_selfloop.cfg", "83d0ef9a8e028a4b:0f7f699a4095830f", 952},
      {"interp_like.cfg", "c803d8e30f905ac8:9154fcb846ec3633", 176},
      {"zlib_like.cfg", "1109f17146cbed78:10cc30728aa6aa99", 178},
      {"serve0", "30c8d24c31f50452:be22174732af0b8e", 50},
      {"serve1", "501b5772b219d7e6:4b4891b31f7ebacc", 51},
      {"serve2", "9d27d9ffa2c97728:ca11d3c85449e6d7", 49},
      {"serve3", "0cb7a6165b5db6ea:d85337dc0bb9f85b", 61},
      {"serve4", "dff78bbe479d012f:a7dd8498b979cb2e", 39},
      {"serve5", "06a7a2b8dc458ffb:50a482b21f1fed9f", 44},
      {"serve6", "12e7b371e7d31ed0:d968b3c8a01298fe", 63},
      {"serve7", "1a15360a3ab86a65:75df4437f5aeb0c5", 41},
      {"serve8", "f32bb9b5965862a1:80e8da2cd8386a23", 52},
      {"serve9", "476421c97bb194c9:4d0a973be0d2975c", 43},
      {"serve10", "b2cc2d7acd0ee7a4:cb3de431a1dd1e95", 49},
      {"serve11", "8b9aeabd642734ff:61f12e9ac4330916", 51},
  };
  std::set<std::string> Pinned;
  for (size_t I = 0; I != std::size(Pins); ++I) {
    SCOPED_TRACE(Pins[I].Input);
    bool Bundled = I < 5;
    if (Bundled)
      Pinned.insert(Pins[I].Input);
    std::string Text = Bundled ? readData(Pins[I].Input)
                               : printProgram(serveCorpusProgram(I - 5));
    MutantOutcomes Got = programOutcomes(Text, I);
    EXPECT_EQ(Pins[I].Digest, Got.Digest);
    EXPECT_EQ(Pins[I].Accepted, Got.Accepted);
  }
  EXPECT_EQ(bundledFiles(".cfg"), Pinned);
}

TEST(ProfileIOPinTest, MutantsOfEveryProfileKeepTheirOutcomes) {
  // Each bundled profile is parsed against the CFG it was written for;
  // each serve corpus program against a profile synthesized for it
  // (seed 1, budget 3000).
  struct ProfilePin {
    const char *Input, *Cfg, *Digest;
    uint64_t Accepted;
  };
  static const ProfilePin Pins[] = {
      {"defect_contradict.prof", "defect_irreducible.cfg",
       "e107ebe51ead5b1e:49b4fd262d0d04d2", 770},
      {"defect_overflow.prof", "defect_overflow.cfg",
       "7cc90f720d3a38c7:480cbdc2dfbeeedb", 876},
      {"defect_saturated.prof", "defect_irreducible.cfg",
       "89fef5c318953212:6518c2ad92d0c368", 585},
      {"defect_selfloop.prof", "defect_selfloop.cfg",
       "7a71a42f94bbab11:9a6a5f03cee8b779", 1293},
      {"defect_stale.prof", "defect_irreducible.cfg",
       "942df71388e10e64:6e2df993d555e7e8", 853},
      {"serve0", nullptr, "a31514fd501ec4a4:abc4675ab3d3ddce", 130},
      {"serve1", nullptr, "12e488a4fb9f2eab:c02e358ade0ea1e7", 118},
      {"serve2", nullptr, "f56a868c8eebeca8:ff0089103ded8758", 116},
      {"serve3", nullptr, "a5602522bec7e30a:7fb3ad06ff7f3f3e", 118},
      {"serve4", nullptr, "bfe327ebcd963ad4:2820bd6ec430ba5e", 122},
      {"serve5", nullptr, "8bfb9bf4408766ab:be25ce5c35d25193", 110},
      {"serve6", nullptr, "d03b9d4931f28dff:6a50a3fa92bfe6d1", 100},
      {"serve7", nullptr, "372eb80eaa19ec76:acdb563b3aacc7bf", 105},
      {"serve8", nullptr, "1219d47437063d09:8c6306f4bd97302b", 102},
      {"serve9", nullptr, "ec5cbdda186befc6:7b151a55d397407f", 107},
      {"serve10", nullptr, "c9537023fb9b6a47:ced77d993f26dc6f", 117},
      {"serve11", nullptr, "e1c41b2bd5d316eb:9e841f3357fa334c", 111},
  };
  std::set<std::string> Pinned;
  for (size_t I = 0; I != std::size(Pins); ++I) {
    SCOPED_TRACE(Pins[I].Input);
    Program Prog;
    std::string Text;
    if (Pins[I].Cfg) {
      Pinned.insert(Pins[I].Input);
      Prog = readProgram(Pins[I].Cfg);
      Text = readData(Pins[I].Input);
    } else {
      Prog = serveCorpusProgram(I - 5);
      Text = printProgramProfile(Prog, synthesizeProfile(Prog, 1, 3000));
    }
    MutantOutcomes Got = profileOutcomes(Prog, Text, 100 + I);
    EXPECT_EQ(Pins[I].Digest, Got.Digest);
    EXPECT_EQ(Pins[I].Accepted, Got.Accepted);
  }
  EXPECT_EQ(bundledFiles(".prof"), Pinned);
}
