#include "vsim/geometry/mesh_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "test_paths.h"
#include "vsim/geometry/primitives.h"

namespace vsim {
namespace {

TEST(ObjParseTest, MinimalTriangle) {
  const std::string obj =
      "v 0 0 0\n"
      "v 1 0 0\n"
      "v 0 1 0\n"
      "f 1 2 3\n";
  StatusOr<TriangleMesh> mesh = ParseObj(obj);
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_EQ(mesh->vertex_count(), 3u);
  EXPECT_EQ(mesh->triangle_count(), 1u);
}

TEST(ObjParseTest, PolygonFacesAreFanTriangulated) {
  const std::string obj =
      "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
      "f 1 2 3 4\n";
  StatusOr<TriangleMesh> mesh = ParseObj(obj);
  ASSERT_TRUE(mesh.ok());
  EXPECT_EQ(mesh->triangle_count(), 2u);
}

TEST(ObjParseTest, SlashedAndNegativeIndices) {
  const std::string obj =
      "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
      "vn 0 0 1\nvt 0 0\n"
      "f 1/1/1 2/1/1 -1/1/1\n";
  StatusOr<TriangleMesh> mesh = ParseObj(obj);
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_EQ(mesh->triangle_count(), 1u);
}

TEST(ObjParseTest, IgnoresCommentsAndUnknownTags) {
  const std::string obj =
      "# comment\no thing\ng group\nusemtl steel\ns off\n"
      "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n";
  EXPECT_TRUE(ParseObj(obj).ok());
}

TEST(ObjParseTest, RejectsBadVertex) {
  EXPECT_FALSE(ParseObj("v 1 2\nf 1 1 1\n").ok());
}

TEST(ObjParseTest, RejectsOutOfRangeFace) {
  EXPECT_FALSE(ParseObj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n").ok());
}

TEST(ObjParseTest, RejectsNoFaces) {
  EXPECT_FALSE(ParseObj("v 0 0 0\n").ok());
}

TEST(ObjParseTest, RejectsShortFace) {
  EXPECT_FALSE(ParseObj("v 0 0 0\nv 1 0 0\nf 1 2\n").ok());
}

TEST(MeshIoTest, ObjRoundTrip) {
  const TriangleMesh original = MakeSphere(1.0, 12, 6);
  const std::string path = TestTempPath("roundtrip.obj");
  ASSERT_TRUE(SaveObj(original, path).ok());
  StatusOr<TriangleMesh> loaded = LoadMesh(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->vertex_count(), original.vertex_count());
  EXPECT_EQ(loaded->triangle_count(), original.triangle_count());
  EXPECT_NEAR(loaded->SignedVolume(), original.SignedVolume(), 1e-6);
  std::remove(path.c_str());
}

TEST(MeshIoTest, StlBinaryRoundTrip) {
  const TriangleMesh original = MakeTorus(2.0, 0.5, 12, 6);
  const std::string path = TestTempPath("roundtrip.stl");
  ASSERT_TRUE(SaveStlBinary(original, path).ok());
  StatusOr<TriangleMesh> loaded = LoadMesh(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->triangle_count(), original.triangle_count());
  // STL stores floats; volume agrees to float precision.
  EXPECT_NEAR(loaded->SignedVolume(), original.SignedVolume(), 1e-4);
  std::remove(path.c_str());
}

TEST(MeshIoTest, StlAsciiParses) {
  const std::string stl =
      "solid test\n"
      " facet normal 0 0 1\n"
      "  outer loop\n"
      "   vertex 0 0 0\n"
      "   vertex 1 0 0\n"
      "   vertex 0 1 0\n"
      "  endloop\n"
      " endfacet\n"
      "endsolid test\n";
  const std::string path = TestTempPath("ascii.stl");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(stl.c_str(), f);
  std::fclose(f);
  StatusOr<TriangleMesh> mesh = LoadStl(path);
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  EXPECT_EQ(mesh->triangle_count(), 1u);
  std::remove(path.c_str());
}

TEST(MeshIoTest, MissingFileIsIOError) {
  StatusOr<TriangleMesh> mesh = LoadMesh("/nonexistent/path/model.obj");
  ASSERT_FALSE(mesh.ok());
  EXPECT_EQ(mesh.status().code(), StatusCode::kIOError);
}

TEST(MeshIoTest, UnknownExtensionRejected) {
  StatusOr<TriangleMesh> mesh = LoadMesh("/tmp/model.step");
  ASSERT_FALSE(mesh.ok());
  EXPECT_EQ(mesh.status().code(), StatusCode::kInvalidArgument);
}

TEST(MeshIoTest, TruncatedBinaryStlRejected) {
  const std::string path = TestTempPath("broken.stl");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  char header[84] = {};
  uint32_t claimed = 100;  // claims 100 facets, provides none
  std::memcpy(header + 80, &claimed, 4);
  std::fwrite(header, 1, sizeof(header), f);
  std::fclose(f);
  EXPECT_FALSE(LoadStl(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim
