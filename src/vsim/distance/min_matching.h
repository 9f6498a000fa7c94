// Minimal matching distance on vector sets (Definition 6): the cost of
// a minimum-weight perfect matching between two vector sets, where
// unmatched elements of the larger set pay a weight w(x). With w(x) =
// ||x - omega|| and a metric ground distance this is a metric (Lemma 1,
// via the netflow distance of Ramon & Bruynooghe).
#ifndef VSIM_DISTANCE_MIN_MATCHING_H_
#define VSIM_DISTANCE_MIN_MATCHING_H_

#include <limits>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/features/feature_vector.h"

namespace vsim {

enum class GroundDistance {
  kEuclidean,         // the vector set model's choice
  kSquaredEuclidean,  // reduction for the min. Euclidean distance under
                      // permutation (Section 4.2)
  kManhattan,
};

struct MinMatchingOptions {
  GroundDistance ground = GroundDistance::kEuclidean;

  // Reference point omega of the weight function w(x) = dist(x, omega).
  // Empty means the origin -- the paper's choice: covers never have zero
  // extent, so w(x) > 0 holds and the distance stays a metric.
  FeatureVector omega;

  // Take the square root of the total (used with kSquaredEuclidean to
  // recover the minimum Euclidean distance under permutation and keep
  // the metric character, Section 4.2).
  bool sqrt_of_total = false;
};

struct MatchingDistanceResult {
  double distance = 0.0;

  // For each element of the *larger* input set (a if |a| >= |b|, else
  // b): index of its partner in the smaller set, or -1 if unmatched.
  std::vector<int> assignment;

  // True if the first input was the larger (or equal-sized) set, i.e.
  // `assignment` indexes a -> b.
  bool first_is_larger = true;

  // Cost of the order-preserving pairing (element i with element i,
  // surplus unmatched) -- what the one-vector cover sequence model
  // implicitly uses.
  double identity_cost = 0.0;

  // True if the optimal matching is strictly cheaper than the identity
  // pairing, i.e. at least one "proper permutation" was necessary
  // (the statistic of the paper's Table 1).
  bool permutation_used = false;
};

// Full result with the optimal assignment.
MatchingDistanceResult MinimalMatchingDistanceDetailed(
    const VectorSet& a, const VectorSet& b, const MinMatchingOptions& opt);

// Distance only.
double MinimalMatchingDistance(const VectorSet& a, const VectorSet& b,
                               const MinMatchingOptions& opt);

// The vector set model's distance: Euclidean ground distance, weight
// w(x) = ||x||, no square root. A metric.
double VectorSetDistance(const VectorSet& a, const VectorSet& b);

// VectorSetDistance against a threshold, for refinement steps that only
// need to know whether d(a, b) > upper (optimal multi-step k-NN with
// upper = the current k-th distance; range queries with upper = eps).
// Builds the same cost matrix as VectorSetDistance and takes the lower
// bound VectorSetCostBound over it. If that bound exceeds `upper` by
// more than its rounding slack (kCostBoundSlack per matrix row), returns
// the bound -- a value > upper -- without the O(m^3) assignment solve.
// Otherwise solves and returns a value bitwise equal to
// VectorSetDistance(a, b). So the result is VectorSetDistance(a, b)
// whenever that is <= upper, and > upper otherwise. `bound_rejected`,
// when non-null, reports whether the bound answered. No heap allocation
// once the thread has computed a distance of this size.
double BoundedVectorSetDistance(const VectorSet& a, const VectorSet& b,
                                double upper,
                                bool* bound_rejected = nullptr);

// The lower bound BoundedVectorSetDistance tests:
// max(sum of row minima, sum of column minima) of Definition 6's square
// cost matrix, unmatched-weight columns included. Every perfect
// matching takes one entry per row and one per column, so both sums are
// <= the matching cost. The row sum is computed in the solver's row
// order and never exceeds the computed distance; the column sum adds
// the same kind of terms in another order, so rounding may put it
// above the computed distance, by at most (m-1) machine epsilons
// relative for an m-row matrix of non-negative costs.
double VectorSetCostBound(const VectorSet& a, const VectorSet& b);

// Relative rounding slack per matrix row of VectorSetCostBound: the
// bound rejects only if bound > upper * (1 + m * kCostBoundSlack). Four
// machine epsilons per row is more than twice the worst-case summation
// error above.
inline constexpr double kCostBoundSlack =
    4.0 * std::numeric_limits<double>::epsilon();

// Partial similarity (Section 4.1): the cost of the cheapest matching
// of exactly `pairs` vector pairs between the two sets, ignoring all
// remaining vectors (no unmatched penalty). `pairs` must be at least 1
// and at most min(|a|, |b|). Useful when only a sub-shape needs to
// match, e.g. a part that contains another part.
StatusOr<double> PartialMatchingDistance(const VectorSet& a,
                                         const VectorSet& b, int pairs);

}  // namespace vsim

#endif  // VSIM_DISTANCE_MIN_MATCHING_H_
