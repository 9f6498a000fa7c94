#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>

#include "test_paths.h"
#include "vsim/common/rng.h"
#include "vsim/index/xtree.h"

namespace vsim {
namespace {

TEST(XTreeIoTest, RoundTripPreservesQueries) {
  Rng rng(808);
  const int dim = 6, count = 1200;
  XTreeOptions opts;
  opts.page_size_bytes = 512;
  XTree tree(dim, opts);
  std::vector<FeatureVector> pts(count, FeatureVector(dim));
  for (int i = 0; i < count; ++i) {
    for (double& v : pts[i]) v = rng.Uniform(-3, 3);
    ASSERT_TRUE(tree.Insert(pts[i], i).ok());
  }
  const std::string path = TestTempPath("tree.vsxt");
  ASSERT_TRUE(tree.Save(path).ok());
  StatusOr<XTree> loaded = XTree::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->supernode_count(), tree.supernode_count());
  EXPECT_TRUE(loaded->Validate().ok());

  for (int q = 0; q < 10; ++q) {
    FeatureVector query(dim);
    for (double& v : query) v = rng.Uniform(-3, 3);
    // Identical results AND identical charged I/O (same structure).
    IoStats io_a, io_b;
    const auto ka = tree.KnnQuery(query, 7, &io_a);
    const auto kb = loaded->KnnQuery(query, 7, &io_b);
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      EXPECT_EQ(ka[i].id, kb[i].id);
      EXPECT_EQ(ka[i].distance, kb[i].distance);
    }
    EXPECT_EQ(io_a.page_accesses(), io_b.page_accesses());
    auto ra = tree.RangeQuery(query, 1.0);
    auto rb = loaded->RangeQuery(query, 1.0);
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    EXPECT_EQ(ra, rb);
  }
  // The loaded tree accepts further inserts.
  ASSERT_TRUE(loaded->Insert(FeatureVector(dim, 0.0), count).ok());
  EXPECT_TRUE(loaded->Validate().ok());
}

TEST(XTreeIoTest, EmptyTreeRoundTrips) {
  XTree tree(4);
  const std::string path = TestTempPath("empty.vsxt");
  ASSERT_TRUE(tree.Save(path).ok());
  StatusOr<XTree> loaded = XTree::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_TRUE(loaded->KnnQuery({0, 0, 0, 0}, 3).empty());
  std::remove(path.c_str());
}

TEST(XTreeIoTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(XTree::Load("/nonexistent.vsxt").ok());
  const std::string path = TestTempPath("garbage.vsxt");
  std::ofstream(path) << "not an xtree at all";
  EXPECT_FALSE(XTree::Load(path).ok());
  std::remove(path.c_str());

  // Truncate a valid file.
  Rng rng(1);
  XTree tree(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Insert({rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()}, i).ok());
  }
  const std::string full = TestTempPath("full.vsxt");
  ASSERT_TRUE(tree.Save(full).ok());
  std::ifstream in(full, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  content.resize(content.size() / 2);
  std::ofstream out(full, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  EXPECT_FALSE(XTree::Load(full).ok());
  std::remove(full.c_str());
}

}  // namespace
}  // namespace vsim
