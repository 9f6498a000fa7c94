#include <gtest/gtest.h>

#include <cstdio>

#include "vsim/geometry/mesh.h"
#include "vsim/geometry/mesh_io.h"
#include "vsim/geometry/primitives.h"
#include "vsim/index/mtree.h"

#include "test_paths.h"
#include "vsim/common/rng.h"
#include "vsim/distance/lp.h"

namespace vsim {
namespace {

TEST(WeldTest, StlRoundTripRestoresSharedTopology) {
  // STL triplicates vertices; welding restores the original counts.
  const TriangleMesh original = MakeSphere(1.0, 16, 8);
  const std::string path = TestTempPath("weld.stl");
  ASSERT_TRUE(SaveStlBinary(original, path).ok());
  StatusOr<TriangleMesh> loaded = LoadStl(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->vertex_count(), 3 * loaded->triangle_count());
  EXPECT_FALSE(loaded->IsWatertight());  // no shared edges at all
  const TriangleMesh welded = WeldVertices(*loaded, 1e-6);
  EXPECT_EQ(welded.vertex_count(), original.vertex_count());
  EXPECT_EQ(welded.triangle_count(), original.triangle_count());
  EXPECT_TRUE(welded.IsWatertight());
  EXPECT_NEAR(welded.SignedVolume(), original.SignedVolume(), 1e-4);
  std::remove(path.c_str());
}

TEST(WeldTest, PrimitivesAreWatertightLoadedStlIsNot) {
  EXPECT_TRUE(MakeBox({1, 2, 3}).IsWatertight());
  EXPECT_TRUE(MakeTorus(1.0, 0.3, 12, 6).IsWatertight());
  TriangleMesh soup;
  soup.AddTriangle(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0});
  EXPECT_FALSE(soup.IsWatertight());
}

TEST(WeldTest, DegeneratedTrianglesDropped) {
  TriangleMesh mesh;
  // Two vertices within tolerance collapse; the triangle vanishes.
  const uint32_t a = mesh.AddVertex({0, 0, 0});
  const uint32_t b = mesh.AddVertex({1e-12, 0, 0});
  const uint32_t c = mesh.AddVertex({1, 1, 0});
  mesh.AddTriangle(a, b, c);
  const uint32_t d = mesh.AddVertex({2, 0, 0});
  mesh.AddTriangle(a, c, d);
  const TriangleMesh welded = WeldVertices(mesh, 1e-6);
  EXPECT_EQ(welded.triangle_count(), 1u);
  EXPECT_EQ(welded.vertex_count(), 3u);
}

TEST(WeldTest, LooseToleranceMergesNearbyVertices) {
  TriangleMesh mesh = MakeBox({1, 1, 1});
  // Perturb vertices slightly; a loose weld undoes the jitter-induced
  // duplication when appending a shifted copy.
  TriangleMesh copy = mesh;
  copy.ApplyTransform(Transform::Translate({1e-7, -1e-7, 0}));
  mesh.Append(copy);
  const TriangleMesh welded = WeldVertices(mesh, 1e-3);
  EXPECT_EQ(welded.vertex_count(), 8u);
}

TEST(MTreeValidateTest, InvariantsHoldForPointsAndVectorSets) {
  Rng rng(71);
  MTreeOptions opts;
  opts.node_capacity = 8;
  MTree<FeatureVector> tree(
      [](const FeatureVector& a, const FeatureVector& b) {
        return EuclideanDistance(a, b);
      },
      opts);
  EXPECT_TRUE(tree.Validate().ok());
  for (int i = 0; i < 500; ++i) {
    FeatureVector p(4);
    for (double& v : p) v = rng.Uniform(0, 1);
    tree.Insert(std::move(p), i);
    if (i % 100 == 99) {
      ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
    }
  }
  EXPECT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
}

}  // namespace
}  // namespace vsim
