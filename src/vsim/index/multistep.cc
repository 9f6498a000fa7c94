#include "vsim/index/multistep.h"

#include <algorithm>
#include <limits>

#include "vsim/common/stopwatch.h"

namespace vsim {

std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const BoundedDistanceFn& distance,
                                   IoStats* stats, MultiStepStats* msstats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Max-heap of the k best exact distances seen so far.
  std::vector<Neighbor> best;  // kept heapified, largest distance on top
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  };
  XTree::RankingCursor cursor = filter_index.Rank(filter_query, stats);
  MultiStepStats local;
  while (cursor.HasNext()) {
    const double next_bound = cursor.NextDistance() * filter_scale;
    if (static_cast<int>(best.size()) == k &&
        FilterBoundExceeds(next_bound, best.front().distance)) {
      break;  // optimal stopping condition (Seidl & Kriegel)
    }
    const Neighbor candidate = cursor.Next();
    ++local.filter_hits;
    // A candidate enters the answer only if it beats the current k-th
    // distance, so the distance is needed exactly only up to there.
    const double upper =
        static_cast<int>(best.size()) == k ? best.front().distance : kInf;
    Stopwatch refine_watch;
    const double exact = distance(candidate.id, upper, stats);
    local.refine_seconds += refine_watch.ElapsedSeconds();
    ++local.candidates_refined;
    if (static_cast<int>(best.size()) < k) {
      best.push_back({candidate.id, exact});
      std::push_heap(best.begin(), best.end(), cmp);
    } else if (exact < best.front().distance) {
      std::pop_heap(best.begin(), best.end(), cmp);
      best.back() = {candidate.id, exact};
      std::push_heap(best.begin(), best.end(), cmp);
    }
  }
  std::sort_heap(best.begin(), best.end(), cmp);
  if (msstats != nullptr) *msstats = local;
  return best;
}

std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const ExactDistanceFn& exact_distance,
                                   IoStats* stats, MultiStepStats* msstats) {
  return MultiStepKnn(
      filter_index, filter_query, filter_scale, k,
      BoundedDistanceFn([&exact_distance](int id, double, IoStats* s) {
        return exact_distance(id, s);
      }),
      stats, msstats);
}

std::vector<int> MultiStepRange(const XTree& filter_index,
                                const FeatureVector& filter_query,
                                double filter_scale, double eps,
                                const BoundedDistanceFn& distance,
                                IoStats* stats, MultiStepStats* msstats) {
  const std::vector<int> candidates = filter_index.RangeQuery(
      filter_query, (eps + kFilterSlack * (1.0 + eps)) / filter_scale, stats);
  MultiStepStats local;
  local.filter_hits = candidates.size();
  std::vector<int> result;
  for (int id : candidates) {
    Stopwatch refine_watch;
    const double exact = distance(id, eps, stats);
    local.refine_seconds += refine_watch.ElapsedSeconds();
    ++local.candidates_refined;
    if (exact <= eps) result.push_back(id);
  }
  if (msstats != nullptr) *msstats = local;
  return result;
}

namespace {

void ChargeSequentialScan(size_t scan_bytes, size_t page_size,
                          IoStats* stats) {
  if (stats == nullptr) return;
  stats->AddPageAccesses((scan_bytes + page_size - 1) / page_size);
  stats->AddBytesRead(scan_bytes);
}

}  // namespace

std::vector<Neighbor> ScanKnn(int count, int k, size_t scan_bytes,
                              size_t page_size,
                              const ExactDistanceFn& exact_distance,
                              IoStats* stats) {
  ChargeSequentialScan(scan_bytes, page_size, stats);
  std::vector<Neighbor> all;
  all.reserve(count);
  for (int id = 0; id < count; ++id) {
    // Object bytes already charged by the sequential read: pass no
    // stats to the distance evaluation.
    all.push_back({id, exact_distance(id, nullptr)});
  }
  const int kk = std::min<int>(k, count);
  std::partial_sort(all.begin(), all.begin() + kk, all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance;
                    });
  all.resize(kk);
  return all;
}

std::vector<int> ScanRange(int count, double eps, size_t scan_bytes,
                           size_t page_size,
                           const ExactDistanceFn& exact_distance,
                           IoStats* stats) {
  ChargeSequentialScan(scan_bytes, page_size, stats);
  std::vector<int> result;
  for (int id = 0; id < count; ++id) {
    if (exact_distance(id, nullptr) <= eps) result.push_back(id);
  }
  return result;
}

}  // namespace vsim
