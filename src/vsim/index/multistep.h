// Filter-and-refine query processing (Section 4.3): a lower-bounding
// filter distance (the extended-centroid distance, indexed in an
// X-tree) prunes candidates before the exact minimal matching distance
// is computed.
//
//   - Range queries follow Korn et al.: filter with eps, refine.
//     (With the centroid filter the X-tree is queried with eps / k,
//     since the indexed centroid distance is the bound divided by k.)
//   - k-NN queries follow Seidl & Kriegel's *optimal multi-step* k-NN:
//     candidates are fetched in ascending filter-distance order and the
//     algorithm stops exactly when the next filter distance exceeds the
//     current k-th exact distance. No lower-bound-respecting algorithm
//     can refine fewer candidates.
#ifndef VSIM_INDEX_MULTISTEP_H_
#define VSIM_INDEX_MULTISTEP_H_

#include <functional>

#include "vsim/features/feature_vector.h"
#include "vsim/index/io_stats.h"
#include "vsim/index/xtree.h"

namespace vsim {

// Computes the exact distance of the query to the stored object `id`,
// charging any object-fetch I/O to `stats`.
using ExactDistanceFn = std::function<double(int id, IoStats* stats)>;

// The refinement step of the multi-step loops: like ExactDistanceFn,
// but it only has to be exact when the distance is <= `upper`; above
// that it may return any value > `upper` (e.g. a cheaper lower bound
// that already exceeds it). The loops pass the current k-th distance
// (+infinity until k answers are held) or the range radius, so a
// candidate that could never enter the answer skips the full
// computation and the answers stay identical.
using BoundedDistanceFn =
    std::function<double(int id, double upper, IoStats* stats)>;

// Lemma 2 holds in exact arithmetic, but the filter bound and the exact
// distance are both rounded, and on stored objects the bound can be
// tight: k * ||ca - cb|| came out one ulp above d(a, b) for some aircraft
// pairs, and a VA-file cell bound above 0 for a point in its own cell. The loops therefore skip a candidate only if its filter bound
// exceeds the threshold t (the k-th distance or eps) by more than
// kFilterSlack * (1 + t): at worst a few extra refinements at exact
// ties, never a lost answer.
inline constexpr double kFilterSlack = 1e-12;

inline bool FilterBoundExceeds(double bound, double threshold) {
  return bound > threshold + kFilterSlack * (1.0 + threshold);
}

struct MultiStepStats {
  size_t candidates_refined = 0;  // distance calls, one per candidate
  size_t filter_hits = 0;         // candidates produced by the filter
  // Wall time spent inside exact_distance calls (the refinement stage);
  // the caller's total elapsed time minus this is the filter stage.
  double refine_seconds = 0.0;
};

// Optimal multi-step k-NN. `filter_index` must index a filter vector
// per object such that `filter_scale` * (Euclidean distance in the
// index) lower-bounds the exact distance (for the centroid filter:
// index the extended centroids and pass filter_scale = k).
std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const BoundedDistanceFn& distance,
                                   IoStats* stats = nullptr,
                                   MultiStepStats* msstats = nullptr);
// Full-distance callbacks (replays, tests) forward with upper = +inf.
std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const ExactDistanceFn& exact_distance,
                                   IoStats* stats = nullptr,
                                   MultiStepStats* msstats = nullptr);

// Multi-step eps-range query: filter with eps / filter_scale, refine
// with upper = eps.
std::vector<int> MultiStepRange(const XTree& filter_index,
                                const FeatureVector& filter_query,
                                double filter_scale, double eps,
                                const BoundedDistanceFn& distance,
                                IoStats* stats = nullptr,
                                MultiStepStats* msstats = nullptr);

// Baselines: sequential scan over `count` objects (ids 0..count-1).
// They compute every exact distance, so they stay the independent
// reference for the bounded multi-step loops.
// `scan_bytes` is the total size of the scanned file; its pages are
// charged once per query (sequential read).
std::vector<Neighbor> ScanKnn(int count, int k, size_t scan_bytes,
                              size_t page_size,
                              const ExactDistanceFn& exact_distance,
                              IoStats* stats = nullptr);

std::vector<int> ScanRange(int count, double eps, size_t scan_bytes,
                           size_t page_size,
                           const ExactDistanceFn& exact_distance,
                           IoStats* stats = nullptr);

}  // namespace vsim

#endif  // VSIM_INDEX_MULTISTEP_H_
