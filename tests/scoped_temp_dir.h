// ScopedTempDir — a scratch directory no other test process can share.
//
// ctest runs every discovered gtest case in its own process, many at once
// under -j. A fixed name under the temp root ("horus-recovery-7") is then
// created, written and removed by several processes at the same time. The
// path built here carries the running test's Suite.Name, the process id and
// a caller tag, so neither two live test processes nor two call sites in one
// test collide. The directory is created empty and removed on destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace horus {

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) : path_(unique_path(tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;  // never throw from a destructor
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static std::filesystem::path unique_path(const std::string& tag) {
    std::string name = "horus";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("-") + info->test_suite_name() + "." + info->name();
    }
    name += "-" + std::to_string(::getpid()) + "-" + tag;
    // Parameterized suite and test names contain '/'.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return std::filesystem::path(::testing::TempDir()) / name;
  }

  std::filesystem::path path_;
};

}  // namespace horus
