#include "vsim/distance/min_matching.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "vsim/distance/hungarian.h"
#include "vsim/distance/min_cost_flow.h"
#include "vsim/distance/lp.h"
#include "vsim/kernels/kernels.h"

namespace vsim {

namespace {

kernels::GroundKind ToKernelGround(GroundDistance g) {
  switch (g) {
    case GroundDistance::kEuclidean:
      return kernels::GroundKind::kEuclidean;
    case GroundDistance::kSquaredEuclidean:
      return kernels::GroundKind::kSquaredEuclidean;
    case GroundDistance::kManhattan:
      return kernels::GroundKind::kManhattan;
  }
  return kernels::GroundKind::kEuclidean;
}

// Flattens a (ragged) vector set into a contiguous row-major block for
// the batched kernels.
void Flatten(const VectorSet& set, size_t dim, std::vector<double>* out) {
  out->resize(set.size() * dim);
  double* dst = out->data();
  for (const FeatureVector& v : set.vectors) {
    std::copy(v.begin(), v.end(), dst);
    dst += dim;
  }
}

double Ground(GroundDistance g, const FeatureVector& a,
              const FeatureVector& b) {
  switch (g) {
    case GroundDistance::kEuclidean:
      return EuclideanDistance(a, b);
    case GroundDistance::kSquaredEuclidean:
      return SquaredEuclideanDistance(a, b);
    case GroundDistance::kManhattan:
      return ManhattanDistance(a, b);
  }
  return 0.0;
}

double Weight(GroundDistance g, const FeatureVector& x,
              const FeatureVector& omega) {
  if (omega.empty()) {
    switch (g) {
      case GroundDistance::kEuclidean:
        return EuclideanNorm(x);
      case GroundDistance::kSquaredEuclidean:
        return SquaredEuclideanNorm(x);
      case GroundDistance::kManhattan: {
        double s = 0.0;
        for (double v : x) s += std::fabs(v);
        return s;
      }
    }
  }
  return Ground(g, x, omega);
}

// The flattened sets and the cost matrix of the refinement path, reused
// across calls on one thread (the solver keeps its own arrays, see
// hungarian.h).
struct MatchingScratch {
  std::vector<double> large_flat;
  std::vector<double> small_flat;
  std::vector<double> cost;
};

MatchingScratch& ThreadMatchingScratch() {
  thread_local MatchingScratch scratch;
  return scratch;
}

// Definition 6's square m x m cost matrix for |large| = m >= |small| =
// n >= 1, built in the thread's scratch: columns [0, n) are the elements
// of the smaller set; columns [n, m) are "unmatched" slots charging
// w(x). The ground block -- the refinement hot loop -- is one batched
// kernel call over both sets flattened to contiguous buffers
// (docs/KERNELS.md), writing rows straight into the square matrix.
const double* BuildCostMatrix(const VectorSet& large, const VectorSet& small,
                              const MinMatchingOptions& opt) {
  const int m = static_cast<int>(large.size());
  const int n = static_cast<int>(small.size());
  const size_t dim = large.dim();
  MatchingScratch& s = ThreadMatchingScratch();
  Flatten(large, dim, &s.large_flat);
  Flatten(small, dim, &s.small_flat);
  s.cost.resize(static_cast<size_t>(m) * m);
  kernels::Active().cost_matrix_build(
      ToKernelGround(opt.ground), s.large_flat.data(), m, s.small_flat.data(),
      n, dim, s.cost.data(), m);
  for (int i = 0; i < m; ++i) {
    const double w = Weight(opt.ground, large.vectors[i], opt.omega);
    for (int j = n; j < m; ++j) {
      s.cost[static_cast<size_t>(i) * m + j] = w;
    }
  }
  return s.cost.data();
}

// max(sum of row minima, sum of column minima) of a square m x m matrix,
// the row sum in row order.
double CostMatrixBound(const double* cost, int m) {
  double row_sum = 0.0;
  double column_sum = 0.0;
  for (int i = 0; i < m; ++i) {
    const double* row = cost + static_cast<size_t>(i) * m;
    row_sum += *std::min_element(row, row + m);
  }
  for (int j = 0; j < m; ++j) {
    double column_min = cost[j];
    for (int i = 1; i < m; ++i) {
      column_min = std::min(column_min, cost[static_cast<size_t>(i) * m + j]);
    }
    column_sum += column_min;
  }
  return std::max(row_sum, column_sum);
}

// Total matching cost (before any square root), summed in row order.
// With a finite `upper`, a cost-matrix bound above `upper` (beyond its
// rounding slack) is returned instead of solving; *bound_rejected says
// which happened.
double MatchingTotal(const VectorSet& a, const VectorSet& b,
                     const MinMatchingOptions& opt, double upper,
                     bool* bound_rejected) {
  if (bound_rejected != nullptr) *bound_rejected = false;
  const bool first_is_larger = a.size() >= b.size();
  const VectorSet& large = first_is_larger ? a : b;
  const VectorSet& small = first_is_larger ? b : a;
  const int m = static_cast<int>(large.size());
  if (small.size() == 0) {
    // All elements unmatched (or both sets empty): the sum of weights.
    double total = 0.0;
    for (int i = 0; i < m; ++i) {
      total += Weight(opt.ground, large.vectors[i], opt.omega);
    }
    return total;
  }
  assert(large.dim() == small.dim());
  const double* cost = BuildCostMatrix(large, small, opt);
  if (upper < std::numeric_limits<double>::infinity()) {
    const double bound = CostMatrixBound(cost, m);
    if (bound > upper * (1.0 + m * kCostBoundSlack)) {
      if (bound_rejected != nullptr) *bound_rejected = true;
      return bound;
    }
  }
  return SolveAssignment(cost, m, m, nullptr);
}

const MinMatchingOptions& VectorSetOptions() {
  static const MinMatchingOptions options;
  return options;
}

}  // namespace

MatchingDistanceResult MinimalMatchingDistanceDetailed(
    const VectorSet& a, const VectorSet& b, const MinMatchingOptions& opt) {
  MatchingDistanceResult result;
  result.first_is_larger = a.size() >= b.size();
  const VectorSet& large = result.first_is_larger ? a : b;
  const VectorSet& small = result.first_is_larger ? b : a;
  const int m = static_cast<int>(large.size());
  const int n = static_cast<int>(small.size());

  if (m == 0) {
    // Both sets empty.
    return result;
  }
  assert(large.dim() == small.dim() || n == 0);

  // Identity pairing cost (element i with element i, surplus unmatched).
  for (int i = 0; i < m; ++i) {
    result.identity_cost +=
        i < n ? Ground(opt.ground, large.vectors[i], small.vectors[i])
              : Weight(opt.ground, large.vectors[i], opt.omega);
  }

  result.assignment.assign(m, -1);
  double total = 0.0;
  if (n == 0) {
    total = MatchingTotal(a, b, opt, std::numeric_limits<double>::infinity(),
                          nullptr);
  } else {
    total = SolveAssignment(BuildCostMatrix(large, small, opt), m, m,
                            result.assignment.data());
    for (int& column : result.assignment) {
      if (column >= n) column = -1;  // an "unmatched" slot
    }
    result.permutation_used =
        total < result.identity_cost - 1e-12 * (1.0 + result.identity_cost);
  }
  result.distance = opt.sqrt_of_total ? std::sqrt(total) : total;
  if (opt.sqrt_of_total) {
    result.identity_cost = std::sqrt(result.identity_cost);
  }
  return result;
}

double MinimalMatchingDistance(const VectorSet& a, const VectorSet& b,
                               const MinMatchingOptions& opt) {
  const double total = MatchingTotal(
      a, b, opt, std::numeric_limits<double>::infinity(), nullptr);
  return opt.sqrt_of_total ? std::sqrt(total) : total;
}

double VectorSetDistance(const VectorSet& a, const VectorSet& b) {
  return MatchingTotal(a, b, VectorSetOptions(),
                       std::numeric_limits<double>::infinity(), nullptr);
}

double BoundedVectorSetDistance(const VectorSet& a, const VectorSet& b,
                                double upper, bool* bound_rejected) {
  return MatchingTotal(a, b, VectorSetOptions(), upper, bound_rejected);
}

double VectorSetCostBound(const VectorSet& a, const VectorSet& b) {
  const bool first_is_larger = a.size() >= b.size();
  const VectorSet& large = first_is_larger ? a : b;
  const VectorSet& small = first_is_larger ? b : a;
  if (small.size() == 0) return VectorSetDistance(a, b);  // no matching
  return CostMatrixBound(BuildCostMatrix(large, small, VectorSetOptions()),
                         static_cast<int>(large.size()));
}

StatusOr<double> PartialMatchingDistance(const VectorSet& a,
                                         const VectorSet& b, int pairs) {
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (pairs < 1 || pairs > std::min(m, n)) {
    return Status::InvalidArgument(
        "pairs must be in [1, min(|a|, |b|)] for partial matching");
  }
  // Min-cost flow of exactly `pairs` units through the bipartite graph.
  MinCostFlow flow(m + n + 2);
  const int source = 0, sink = m + n + 1;
  for (int i = 0; i < m; ++i) flow.AddEdge(source, 1 + i, 1, 0.0);
  for (int j = 0; j < n; ++j) flow.AddEdge(m + 1 + j, sink, 1, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      flow.AddEdge(1 + i, m + 1 + j, 1,
                   EuclideanDistance(a.vectors[i], b.vectors[j]));
    }
  }
  const MinCostFlow::Result result = flow.Solve(source, sink, pairs);
  if (result.flow != pairs) {
    return Status::Internal("partial matching flow did not saturate");
  }
  return result.cost;
}

}  // namespace vsim
