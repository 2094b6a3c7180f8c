// Scratch file paths for tests that write to disk (WALs and WAL images).
//
// ctest runs each test in its own process, concurrently, so the pid keeps
// their files apart. Every path handed out is deleted when the test that
// asked for it ends, whether it passed or failed.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>

namespace muri::test {

class ScratchFiles final : public testing::EmptyTestEventListener {
 public:
  // <TempDir><prefix><pid>_<name>; the same name yields the same path
  // within one process.
  static std::string path(const std::string& prefix, const std::string& name) {
    static ScratchFiles* const files = [] {
      auto* listener = new ScratchFiles;  // gtest owns its listeners
      testing::UnitTest::GetInstance()->listeners().Append(listener);
      return listener;
    }();
    std::string p = testing::TempDir() + prefix +
                    std::to_string(::getpid()) + "_" + name;
    files->paths_.insert(p);
    return p;
  }

  void OnTestEnd(const testing::TestInfo&) override {
    for (const std::string& p : paths_) std::remove(p.c_str());
    paths_.clear();
  }

 private:
  std::set<std::string> paths_;
};

}  // namespace muri::test
