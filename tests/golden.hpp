// Byte-for-byte golden comparison for the test suite.
//
// Goldens live in tests/data/. On a mismatch the actual bytes are
// written to <name>.actual in the working directory (the test binary's
// directory under ctest), so the difference can be inspected with
// diff(1) and, when the change is intended, copied over the golden.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#ifndef TRACON_TEST_DATA_DIR
#error "TRACON_TEST_DATA_DIR must point at tests/data"
#endif

namespace tracon::golden {

inline void expect_matches(const std::string& name,
                           const std::string& actual) {
  const std::string path = std::string(TRACON_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << "output differs from golden " << path << " ("
                << expected.str().size() << " bytes golden, "
                << actual.size() << " bytes actual); actual written to "
                << name << ".actual";
}

}  // namespace tracon::golden
