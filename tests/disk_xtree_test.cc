#include "vsim/index/disk_xtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "test_paths.h"
#include "vsim/common/rng.h"

namespace vsim {
namespace {

struct World {
  XTree memory{1};
  std::vector<FeatureVector> points;
};

World BuildWorld(int dim, int count, uint64_t seed, bool bulk) {
  Rng rng(seed);
  World w{XTree(dim), {}};
  w.points.assign(count, FeatureVector(dim));
  for (auto& p : w.points) {
    for (double& v : p) v = rng.Uniform(-2, 2);
  }
  if (bulk) {
    std::vector<int> ids(count);
    std::iota(ids.begin(), ids.end(), 0);
    EXPECT_TRUE(w.memory.BulkLoad(w.points, ids).ok());
  } else {
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(w.memory.Insert(w.points[i], i).ok());
    }
  }
  return w;
}

class DiskXTreeParamTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DiskXTreeParamTest, QueriesMatchInMemoryTree) {
  const auto [dim, bulk] = GetParam();
  const World w = BuildWorld(dim, 800, 99 + dim, bulk);
  // One file per param instance: ctest runs the instances as separate
  // processes in parallel, so a shared path would race one instance's
  // Write against another's reads (this showed up as a rare flake, and
  // once as a corrupt read that sent the loader into a giant
  // allocation -- see the bounds checks in DiskXTree::Open).
  const std::string path =
      TestTempPath("disk_tree_" + std::to_string(dim) +
               (bulk ? "_bulk" : "_ins") + ".vsdx");
  ASSERT_TRUE(DiskXTree::Write(w.memory, path, 1024).ok());
  StatusOr<DiskXTree> disk = DiskXTree::Open(path, 32);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ(disk->size(), w.memory.size());
  EXPECT_EQ(disk->dim(), dim);

  Rng rng(5);
  for (int q = 0; q < 12; ++q) {
    FeatureVector query(dim);
    for (double& v : query) v = rng.Uniform(-2, 2);
    // Range equivalence.
    const double eps = rng.Uniform(0.5, 2.0);
    auto a = w.memory.RangeQuery(query, eps);
    auto b = disk->RangeQuery(query, eps);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    // k-NN equivalence (distances; ids may differ on exact ties).
    const auto ka = w.memory.KnnQuery(query, 9);
    const auto kb = disk->KnnQuery(query, 9);
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      EXPECT_NEAR(ka[i].distance, kb[i].distance, 1e-12);
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(DimsAndBuilds, DiskXTreeParamTest,
                         ::testing::Combine(::testing::Values(2, 6, 20),
                                            ::testing::Values(false, true)));

TEST(DiskXTreeTest, CacheMakesRepeatQueriesCheap) {
  const World w = BuildWorld(6, 3000, 4242, true);
  const std::string path = TestTempPath("cache_tree.vsdx");
  ASSERT_TRUE(DiskXTree::Write(w.memory, path, 1024).ok());
  StatusOr<DiskXTree> disk = DiskXTree::Open(path, 256);
  ASSERT_TRUE(disk.ok());
  const FeatureVector query(6, 0.25);
  IoStats cold, warm;
  disk->KnnQuery(query, 10, &cold);
  disk->KnnQuery(query, 10, &warm);
  EXPECT_GT(cold.page_accesses(), 0u);
  EXPECT_EQ(warm.page_accesses(), 0u);  // fully cached second run
  EXPECT_EQ(warm.bytes_read(), cold.bytes_read());  // same nodes parsed
  std::remove(path.c_str());
}

TEST(DiskXTreeTest, TinyPoolStillCorrectJustSlower) {
  const World w = BuildWorld(4, 1500, 7, false);
  const std::string path = TestTempPath("tiny_pool.vsdx");
  ASSERT_TRUE(DiskXTree::Write(w.memory, path, 512).ok());
  StatusOr<DiskXTree> small = DiskXTree::Open(path, 2);
  StatusOr<DiskXTree> large = DiskXTree::Open(path, 512);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  const FeatureVector query(4, 0.1);
  IoStats io_small, io_large;
  const auto a = small->KnnQuery(query, 5, &io_small);
  // Warm the big pool, then query again: misses collapse.
  large->KnnQuery(query, 5, &io_large);
  IoStats io_large2;
  const auto b = large->KnnQuery(query, 5, &io_large2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].distance, b[i].distance, 1e-12);
  }
  EXPECT_GE(io_small.page_accesses(), io_large2.page_accesses());
  std::remove(path.c_str());
}

TEST(DiskXTreeTest, EmptyTreeAndErrors) {
  XTree empty(3);
  const std::string path = TestTempPath("empty_tree.vsdx");
  ASSERT_TRUE(DiskXTree::Write(empty, path).ok());
  StatusOr<DiskXTree> disk = DiskXTree::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_TRUE(disk->KnnQuery({0, 0, 0}, 3).empty());
  EXPECT_TRUE(disk->RangeQuery({0, 0, 0}, 1.0).empty());
  std::remove(path.c_str());

  EXPECT_FALSE(DiskXTree::Open("/nonexistent.vsdx").ok());
}

}  // namespace
}  // namespace vsim
