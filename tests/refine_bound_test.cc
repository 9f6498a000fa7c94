// The refinement cascade (centroid filter -> cost-matrix bound ->
// Hungarian solve) must not change one answer:
//
//   - RefineBoundTest: on random vector sets (sizes 0-7, d = 6, with
//     duplicate sets, zero distances and unequal cardinalities) the
//     cost-matrix bound lower-bounds VectorSetDistance within its stated
//     slack, and BoundedVectorSetDistance is bitwise VectorSetDistance
//     whenever that is <= upper and > upper otherwise.
//   - RefineEquivalenceTest: on the tie-heavy aircraft generator, the
//     filter strategies' k-NN and range answers equal the sequential
//     scan's bitwise, for every stored id, in RAM and disk-backed mode,
//     and the per-query counters add up.
//
// kernel_force_scalar re-runs these suites on the scalar kernel's cost
// matrix, and tools/check_tsan.sh runs them under ThreadSanitizer
// (the concurrent test shares one engine across threads, each with its
// own per-thread solver scratch).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "test_paths.h"
#include "vsim/common/rng.h"
#include "vsim/core/query_engine.h"
#include "vsim/data/dataset.h"
#include "vsim/distance/min_matching.h"
#include "vsim/service/db_snapshot.h"

namespace vsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kDim = 6;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

FeatureVector RandomVector(Rng& rng) {
  FeatureVector v(kDim);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

// Pairs of sets covering the shapes refinement meets: independent
// random sets of sizes 0-7, identical sets, permuted copies (distance
// 0), subsets (unequal cardinality, shared vectors) and sets holding
// zero vectors (zero unmatched weight).
std::vector<std::pair<VectorSet, VectorSet>> RandomPairs(int count,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VectorSet, VectorSet>> pairs;
  for (int p = 0; p < count; ++p) {
    VectorSet a;
    const int na = static_cast<int>(rng.NextBounded(8));
    for (int i = 0; i < na; ++i) {
      a.vectors.push_back(rng.NextBounded(6) == 0 ? FeatureVector(kDim, 0.0)
                                                  : RandomVector(rng));
    }
    VectorSet b;
    switch (rng.NextBounded(4)) {
      case 0:  // identical
        b = a;
        break;
      case 1:  // permuted copy
        b = a;
        std::reverse(b.vectors.begin(), b.vectors.end());
        break;
      case 2:  // subset
        b = a;
        if (!b.vectors.empty()) {
          b.vectors.resize(rng.NextBounded(b.vectors.size() + 1));
        }
        break;
      default: {  // independent
        const int nb = static_cast<int>(rng.NextBounded(8));
        for (int i = 0; i < nb; ++i) b.vectors.push_back(RandomVector(rng));
      }
    }
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

TEST(RefineBoundTest, CostBoundLowerBoundsTheDistance) {
  int strictly_positive = 0;
  for (const auto& [a, b] : RandomPairs(3000, 71)) {
    const double exact = VectorSetDistance(a, b);
    const double bound = VectorSetCostBound(a, b);
    const double m = static_cast<double>(std::max(a.size(), b.size()));
    EXPECT_LE(bound, exact * (1.0 + m * kCostBoundSlack))
        << "|a|=" << a.size() << " |b|=" << b.size();
    EXPECT_GE(bound, 0.0);
    if (bound > 0.0) ++strictly_positive;
    // Symmetric in its arguments, like the distance.
    EXPECT_TRUE(SameBits(VectorSetCostBound(b, a), bound));
  }
  // The bound is not vacuous.
  EXPECT_GT(strictly_positive, 1000);
}

TEST(RefineBoundTest, BoundedDistanceIsExactUpToTheThreshold) {
  int rejected_count = 0;
  for (const auto& [a, b] : RandomPairs(3000, 72)) {
    const double exact = VectorSetDistance(a, b);
    for (const double upper :
         {0.0, exact, std::nextafter(exact, kInf), std::nextafter(exact, -kInf),
          0.5 * exact, 2.0 * exact, kInf}) {
      bool rejected = false;
      const double got = BoundedVectorSetDistance(a, b, upper, &rejected);
      if (exact <= upper) {
        EXPECT_FALSE(rejected) << "upper " << upper << " exact " << exact;
        EXPECT_TRUE(SameBits(got, exact))
            << "got " << got << " exact " << exact << " upper " << upper;
      } else {
        EXPECT_GT(got, upper) << "exact " << exact;
      }
      if (rejected) {
        EXPECT_GT(got, upper);
        ++rejected_count;
      }
    }
    // Without a threshold the bounded call is the distance itself.
    EXPECT_TRUE(SameBits(BoundedVectorSetDistance(a, b, kInf), exact));
  }
  EXPECT_GT(rejected_count, 1000);
}

// ------------------------------------------------------- engine level

class RefineEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExtractionOptions opt;
    opt.extract_histograms = false;
    opt.cover_resolution = 12;
    opt.num_covers = 7;
    const Dataset ds = MakeAircraftDataset(120, 5);
    StatusOr<CadDatabase> db = CadDatabase::FromDataset(ds, opt);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new CadDatabase(std::move(db).value());
    engine_ = new QueryEngine(db_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
  }

  static void ExpectSameDistances(const std::vector<Neighbor>& got,
                                  const std::vector<Neighbor>& expected,
                                  const char* what, int id) {
    ASSERT_EQ(got.size(), expected.size()) << what << " id " << id;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameBits(got[i].distance, expected[i].distance))
          << what << " id " << id << " rank " << i << ": "
          << got[i].distance << " vs " << expected[i].distance;
    }
  }

  static CadDatabase* db_;
  static QueryEngine* engine_;
};

CadDatabase* RefineEquivalenceTest::db_ = nullptr;
QueryEngine* RefineEquivalenceTest::engine_ = nullptr;

TEST_F(RefineEquivalenceTest, CorpusHasDistanceTies) {
  // The aircraft generator repeats shapes: some stored ids have another
  // object at distance exactly 0, which is where ties at d_k matter.
  int zero_ties = 0;
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    const auto scan = engine_->Knn(QueryStrategy::kVectorSetScan, id, 2);
    if (scan.size() == 2 && scan[1].distance == 0.0) ++zero_ties;
  }
  EXPECT_GT(zero_ties, 0);
}

TEST_F(RefineEquivalenceTest, KnnMatchesScanBitwiseForEveryStoredId) {
  size_t rejected = 0;
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    for (int k : {1, 10}) {
      const auto scan = engine_->Knn(QueryStrategy::kVectorSetScan, id, k);
      for (QueryStrategy strategy : {QueryStrategy::kVectorSetFilter,
                                     QueryStrategy::kVectorSetVaFilter}) {
        QueryCost cost;
        const auto got = engine_->Knn(strategy, id, k, &cost);
        ExpectSameDistances(got, scan, QueryStrategyName(strategy), id);
        EXPECT_EQ(cost.bound_rejected + cost.hungarian_invocations,
                  cost.candidates_refined)
            << QueryStrategyName(strategy) << " id " << id;
        EXPECT_GE(cost.candidates_refined, static_cast<size_t>(k));
        rejected += cost.bound_rejected;
      }
    }
  }
  // The cascade's middle stage really answers for some candidates.
  EXPECT_GT(rejected, 0u);
}

TEST_F(RefineEquivalenceTest, RangeMatchesScanForEveryStoredId) {
  size_t rejected = 0;
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    const ObjectRepr& query = db_->object(id);
    const auto scan_knn = engine_->Knn(QueryStrategy::kVectorSetScan, id, 10);
    // Radii exactly at stored distances put objects on the boundary.
    for (const double eps : {0.0, scan_knn[4].distance, scan_knn[9].distance}) {
      std::vector<int> expected =
          engine_->Range(QueryStrategy::kVectorSetScan, query, eps);
      std::sort(expected.begin(), expected.end());
      for (QueryStrategy strategy : {QueryStrategy::kVectorSetFilter,
                                     QueryStrategy::kVectorSetVaFilter}) {
        QueryCost cost;
        std::vector<int> got = engine_->Range(strategy, query, eps, &cost);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected)
            << QueryStrategyName(strategy) << " id " << id << " eps " << eps;
        EXPECT_EQ(cost.bound_rejected + cost.hungarian_invocations,
                  cost.candidates_refined);
        rejected += cost.bound_rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST_F(RefineEquivalenceTest, DiskBackedKnnMatchesScan) {
  StatusOr<std::shared_ptr<const DbSnapshot>> snap =
      DbSnapshot::CreateDiskBacked(CadDatabase(*db_),
                                   TestTempPath("refine_equiv.vsstore"), 1,
                                   IoCostParams{}, 8,
                                   /*keep_ram_sets=*/true);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const QueryEngine& disk = (*snap)->engine();
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    const auto scan = engine_->Knn(QueryStrategy::kVectorSetScan, id, 10);
    QueryCost cost;
    const auto got = disk.Knn(QueryStrategy::kVectorSetFilter, id, 10, &cost);
    ExpectSameDistances(got, scan, "disk filter", id);
    EXPECT_EQ(cost.bound_rejected + cost.hungarian_invocations,
              cost.candidates_refined);
  }
}

TEST_F(RefineEquivalenceTest, ConcurrentQueriesShareNoScratch) {
  const int n = static_cast<int>(db_->size());
  std::vector<std::vector<Neighbor>> expected(n);
  for (int id = 0; id < n; ++id) {
    expected[id] = engine_->Knn(QueryStrategy::kVectorSetScan, id, 10);
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (int id = t; id < n; id += kThreads / 2) {
          const auto got =
              engine_->Knn(QueryStrategy::kVectorSetFilter, id, 10);
          bool same = got.size() == expected[id].size();
          for (size_t i = 0; same && i < got.size(); ++i) {
            same = SameBits(got[i].distance, expected[id][i].distance);
          }
          if (!same) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace vsim
