// Allocation-freedom check for the refinement path (registered as CTest
// `refine_alloc_check`): global operator new/delete are replaced with
// counting hooks. After one warm-up call on the thread at the largest
// size used, VectorSetDistance, BoundedVectorSetDistance (both when the
// cost-matrix bound answers and when the solve runs) and the
// assignment solve on a caller-owned matrix must make ZERO heap
// allocations: their working memory is per-thread scratch. The
// std::vector overload of SolveAssignment may allocate exactly once,
// for the column_of it returns.
//
// A standalone binary, like obs_alloc_check: gtest's own machinery
// allocates, which would force the hooks to tell call sites apart.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/distance/hungarian.h"
#include "vsim/distance/min_matching.h"

namespace {

// Counting is toggled only on the main thread between phases; the
// counter itself is plain (no other threads run in this binary).
bool g_counting = false;
unsigned long g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void CheckAllocations(const char* phase, unsigned long expected) {
  if (g_allocations != expected) {
    std::fprintf(stderr, "FAIL: %s allocated %lu time(s), expected %lu\n",
                 phase, g_allocations, expected);
    ++failures;
  } else {
    std::printf("ok: %s makes %lu allocation(s)\n", phase, expected);
  }
  g_allocations = 0;
}

vsim::VectorSet RandomSet(vsim::Rng& rng, int size) {
  vsim::VectorSet set;
  for (int i = 0; i < size; ++i) {
    vsim::FeatureVector v(6);
    for (double& x : v) x = rng.Uniform(-1.0, 1.0);
    set.vectors.push_back(std::move(v));
  }
  return set;
}

}  // namespace

int main() {
  using vsim::BoundedVectorSetDistance;
  using vsim::SolveAssignment;
  using vsim::VectorSetDistance;
  constexpr int kMaxSize = 7;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Inputs are built outside the counting phases.
  vsim::Rng rng(17);
  std::vector<vsim::VectorSet> sets;
  for (int size = 0; size <= kMaxSize; ++size) {
    sets.push_back(RandomSet(rng, size));
    sets.push_back(RandomSet(rng, size));
  }
  const vsim::VectorSet& largest = sets.back();
  std::vector<double> matrix(kMaxSize * kMaxSize);
  for (double& c : matrix) c = rng.Uniform(0.0, 1.0);

  // One warm-up call at the largest size (also resolves the kernel set).
  const double warm = VectorSetDistance(largest, sets[sets.size() - 2]);
  (void)BoundedVectorSetDistance(largest, sets[sets.size() - 2], 0.0);
  (void)SolveAssignment(matrix.data(), kMaxSize, kMaxSize, nullptr);
  Check(warm > 0.0, "warm-up distance positive");

  // --- VectorSetDistance over every pair of sizes 0..7 ----------------
  double sink = 0.0;
  g_counting = true;
  for (const vsim::VectorSet& a : sets) {
    for (const vsim::VectorSet& b : sets) sink += VectorSetDistance(a, b);
  }
  g_counting = false;
  CheckAllocations("VectorSetDistance", 0);

  // --- the bounded call: bound answers (upper 0) and solve runs (inf) --
  size_t rejected = 0;
  g_counting = true;
  for (const vsim::VectorSet& a : sets) {
    for (const vsim::VectorSet& b : sets) {
      bool bound_answered = false;
      sink += BoundedVectorSetDistance(a, b, 0.0, &bound_answered);
      rejected += bound_answered ? 1 : 0;
      sink += BoundedVectorSetDistance(a, b, kInf);
    }
  }
  g_counting = false;
  CheckAllocations("BoundedVectorSetDistance", 0);
  Check(rejected > 0, "the bound answered for some pairs");

  // --- the solver on a caller-owned matrix ----------------------------
  int column_of[kMaxSize];
  g_counting = true;
  for (int m = 1; m <= kMaxSize; ++m) {
    sink += SolveAssignment(matrix.data(), m, kMaxSize, column_of);
    sink += SolveAssignment(matrix.data(), m, m, nullptr);
  }
  g_counting = false;
  CheckAllocations("SolveAssignment solve loop", 0);

  // --- the std::vector overload: only its returned column_of ----------
  g_counting = true;
  sink += SolveAssignment(matrix, kMaxSize, kMaxSize).total_cost;
  g_counting = false;
  CheckAllocations("SolveAssignment(std::vector)", 1);

  Check(std::isfinite(sink), "finite results");
  if (failures == 0) {
    std::printf("refine_alloc_check: PASS\n");
    return 0;
  }
  return 1;
}
