// Robustness sweeps for the external-input parsers (OBJ, STL, database
// and index files): random garbage, truncations and pathological inputs
// must produce Status errors, never crashes or runaway allocations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "test_paths.h"
#include "vsim/common/rng.h"
#include "vsim/core/similarity.h"
#include "vsim/geometry/mesh_io.h"
#include "vsim/index/xtree.h"

namespace vsim {
namespace {

TEST(ParserRobustnessTest, RandomGarbageObjNeverCrashes) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const size_t len = rng.NextBounded(400);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    (void)ParseObj(garbage);  // must return, any status
  }
  SUCCEED();
}

TEST(ParserRobustnessTest, ObjLikeGarbageNeverCrashes) {
  // Structured garbage: valid-looking tags with broken payloads.
  Rng rng(17);
  const char* tags[] = {"v", "f", "vn", "vt", "o", "#", "usemtl", "s"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string content;
    const int lines = 1 + static_cast<int>(rng.NextBounded(30));
    for (int l = 0; l < lines; ++l) {
      content += tags[rng.NextBounded(8)];
      const int tokens = static_cast<int>(rng.NextBounded(5));
      for (int t = 0; t < tokens; ++t) {
        switch (rng.NextBounded(4)) {
          case 0: content += " " + std::to_string(rng.UniformInt(-99, 99)); break;
          case 1: content += " " + std::to_string(rng.NextDouble()); break;
          case 2: content += " 1/2/3"; break;
          default: content += " nan"; break;
        }
      }
      content += "\n";
    }
    (void)ParseObj(content);
  }
  SUCCEED();
}

TEST(ParserRobustnessTest, HugeFaceIndexRejectedNotAllocated) {
  // A face referencing vertex 2^31 must be rejected cleanly.
  const std::string obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2147483647\n";
  StatusOr<TriangleMesh> mesh = ParseObj(obj);
  EXPECT_FALSE(mesh.ok());
}

TEST(ParserRobustnessTest, RandomGarbageStlFiles) {
  Rng rng(19);
  const std::string path = TestTempPath("garbage.stl");
  for (int trial = 0; trial < 60; ++trial) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const size_t len = rng.NextBounded(300);
    for (size_t i = 0; i < len; ++i) {
      out.put(static_cast<char>(rng.NextBounded(256)));
    }
    out.close();
    (void)LoadStl(path);  // must not crash
  }
  std::remove(path.c_str());
  SUCCEED();
}

TEST(ParserRobustnessTest, RandomGarbageDatabaseFiles) {
  Rng rng(23);
  const std::string path = TestTempPath("garbage.vsimdb");
  for (int trial = 0; trial < 60; ++trial) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    // Half the trials start with the valid magic to reach deeper code.
    if (trial % 2 == 0) out.write("VSIMDB01", 8);
    const size_t len = rng.NextBounded(300);
    for (size_t i = 0; i < len; ++i) {
      out.put(static_cast<char>(rng.NextBounded(256)));
    }
    out.close();
    StatusOr<CadDatabase> db = CadDatabase::Load(path);
    EXPECT_FALSE(db.ok());
  }
  std::remove(path.c_str());
}

TEST(ParserRobustnessTest, RandomGarbageXTreeFiles) {
  Rng rng(29);
  const std::string path = TestTempPath("garbage.vsxt");
  for (int trial = 0; trial < 60; ++trial) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (trial % 2 == 0) out.write("VSXTRE01", 8);
    const size_t len = rng.NextBounded(300);
    for (size_t i = 0; i < len; ++i) {
      out.put(static_cast<char>(rng.NextBounded(256)));
    }
    out.close();
    StatusOr<XTree> tree = XTree::Load(path);
    EXPECT_FALSE(tree.ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim
