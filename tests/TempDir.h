//===- tests/TempDir.h - A test directory removed at scope end -*- C++ -*-===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test helper: a fresh, empty directory under the gtest temp root
/// (`TEST_TMPDIR` when set), removed with everything in it when the
/// helper goes out of scope, so a test run leaves no directory behind,
/// also when an assertion ends the test early.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_TEMPDIR_H
#define BALIGN_TESTS_TEMPDIR_H

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace balign {

/// The directory `balign_<Name>` under the gtest temp root.
class TempDir {
public:
  explicit TempDir(const std::string &Name)
      : Path((std::filesystem::path(::testing::TempDir()) / ("balign_" + Name))
                 .string()) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ignored;
    std::filesystem::remove_all(Path, Ignored);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  const std::string &path() const { return Path; }

  /// The path of \p Leaf inside the directory.
  std::string operator/(const std::string &Leaf) const {
    return Path + "/" + Leaf;
  }

private:
  std::string Path;
};

} // namespace balign

#endif // BALIGN_TESTS_TEMPDIR_H
