// Scratch-file paths for tests. Every name is placed under gtest's
// TempDir() with the process id in front, so several copies of the test
// binary running at once (parallel ctest, --gtest_repeat loops in two
// shells) never read or rewrite each other's files. Within one process
// the same name maps to the same path, so a test can write a file and
// reopen it by name.
#ifndef VSIM_TESTS_TEST_PATHS_H_
#define VSIM_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace vsim {

inline std::string TestTempPath(const std::string& name) {
  return ::testing::TempDir() + "/vsim_" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace vsim

#endif  // VSIM_TESTS_TEST_PATHS_H_
