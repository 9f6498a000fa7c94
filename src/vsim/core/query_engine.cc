#include "vsim/core/query_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

#include "vsim/common/stopwatch.h"
#include "vsim/distance/lp.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/distance/min_matching.h"
#include "vsim/features/orientation.h"

namespace vsim {

namespace {

// Splits a query's elapsed CPU time into filter and refine stages.
// The X-tree filter strategy measures refinement inside MultiStep*
// (time in exact_distance calls), so filter = elapsed - refine. The
// strategies without a measured split charge the whole execution to
// the stage that dominates them by construction: scan, M-tree and
// VA-file spend their CPU in exact distance evaluations (refine); the
// one-vector model has no refinement at all (filter).
void FinishStageAttribution(QueryStrategy strategy, double elapsed,
                            QueryCost* cost) {
  cost->cpu_seconds = elapsed;
  switch (strategy) {
    case QueryStrategy::kVectorSetFilter:
      cost->filter_seconds = std::max(0.0, elapsed - cost->refine_seconds);
      break;
    case QueryStrategy::kOneVectorXTree:
      cost->filter_seconds = elapsed;
      break;
    case QueryStrategy::kVectorSetScan:
    case QueryStrategy::kVectorSetMTree:
    case QueryStrategy::kVectorSetVaFilter:
      cost->refine_seconds = elapsed;
      break;
  }
}

}  // namespace

const char* QueryStrategyName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kOneVectorXTree:
      return "1-vector X-tree";
    case QueryStrategy::kVectorSetFilter:
      return "vector set + filter";
    case QueryStrategy::kVectorSetScan:
      return "vector set seq. scan";
    case QueryStrategy::kVectorSetMTree:
      return "vector set M-tree";
    case QueryStrategy::kVectorSetVaFilter:
      return "vector set + VA-file filter";
  }
  return "unknown";
}

QueryEngine::QueryEngine(const CadDatabase* db, IoCostParams params)
    : db_(db), params_(params), num_covers_(db->options().num_covers) {
  assert(db_->size() > 0);
  const int dim = static_cast<int>(db_->object(0).centroid.size());
  const int one_vector_dim =
      static_cast<int>(db_->object(0).cover_vector.size());

  XTreeOptions xopts;
  xopts.page_size_bytes = params_.page_size_bytes;
  centroid_index_ = std::make_unique<XTree>(dim, xopts);
  one_vector_index_ = std::make_unique<XTree>(one_vector_dim, xopts);

  MTreeOptions mopts;
  mopts.page_size_bytes = params_.page_size_bytes;
  mopts.object_bytes =
      static_cast<size_t>(num_covers_) * dim * sizeof(double);
  mtree_ = std::make_unique<MTree<VectorSet>>(
      [](const VectorSet& a, const VectorSet& b) {
        return VectorSetDistance(a, b);
      },
      mopts);

  // The X-trees are bulk-loaded (STR packing); the M-tree grows by
  // insertion (metric trees have no comparable packing).
  std::vector<FeatureVector> centroids, cover_vectors;
  std::vector<int> ids;
  centroids.reserve(db_->size());
  cover_vectors.reserve(db_->size());
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    const ObjectRepr& repr = db_->object(id);
    centroids.push_back(repr.centroid);
    cover_vectors.push_back(repr.cover_vector);
    ids.push_back(id);
    mtree_->Insert(repr.vector_set, id);
    scan_bytes_ += repr.VectorSetBytes();
  }
  Status st = centroid_index_->BulkLoad(centroids, ids);
  assert(st.ok());
  st = one_vector_index_->BulkLoad(cover_vectors, ids);
  assert(st.ok());
  VaFileOptions va_opts;
  va_opts.page_size_bytes = params_.page_size_bytes;
  centroid_vafile_ = std::make_unique<VaFile>(dim, va_opts);
  st = centroid_vafile_->Build(centroids, ids);
  assert(st.ok());
  (void)st;
}

BoundedDistanceFn QueryEngine::MakeExactDistance(
    const ObjectRepr& query, size_t* bound_rejected) const {
  // The candidate is fetched (and its I/O charged) before the bound is
  // tried: a bound-rejected candidate was still read.
  const auto refine = [&query, bound_rejected](const VectorSet& candidate,
                                               double upper) {
    bool rejected = false;
    const double d = BoundedVectorSetDistance(query.vector_set, candidate,
                                              upper, &rejected);
    if (rejected && bound_rejected != nullptr) ++*bound_rejected;
    return d;
  };
  if (store_ != nullptr) {
    // Disk-backed mode: really fetch the candidate through the buffer
    // pool; only cache misses are charged as page accesses.
    return [this, refine](int id, double upper, IoStats* stats) {
      StatusOr<VectorSet> candidate = store_->Get(id, stats);
      assert(candidate.ok());
      return refine(*candidate, upper);
    };
  }
  return [this, refine](int id, double upper, IoStats* stats) {
    const ObjectRepr& candidate = db_->object(id);
    if (stats != nullptr) {
      // Refinement loads the candidate's vector set: one random page
      // access plus its payload bytes.
      stats->AddPageAccesses(1);
      stats->AddBytesRead(candidate.VectorSetBytes());
    }
    return refine(candidate.vector_set, upper);
  };
}

ExactDistanceFn QueryEngine::MakeScanDistance(const ObjectRepr& query) const {
  return [exact = MakeExactDistance(query, nullptr)](int id, IoStats* stats) {
    return exact(id, std::numeric_limits<double>::infinity(), stats);
  };
}

std::vector<Neighbor> QueryEngine::Knn(QueryStrategy strategy, int query_id,
                                       int k, QueryCost* cost) const {
  return Knn(strategy, db_->object(query_id), k, cost);
}

std::vector<Neighbor> QueryEngine::Knn(QueryStrategy strategy,
                                       const ObjectRepr& query, int k,
                                       QueryCost* cost) const {
  QueryCost local;
  Stopwatch watch;
  std::vector<Neighbor> result;
  switch (strategy) {
    case QueryStrategy::kOneVectorXTree: {
      result = one_vector_index_->KnnQuery(query.cover_vector, k, &local.io);
      break;
    }
    case QueryStrategy::kVectorSetFilter: {
      MultiStepStats ms;
      result = MultiStepKnn(*centroid_index_, query.centroid,
                            static_cast<double>(num_covers_), k,
                            MakeExactDistance(query, &local.bound_rejected),
                            &local.io, &ms);
      local.candidates_refined = ms.candidates_refined;
      local.filter_hits = ms.filter_hits;
      local.hungarian_invocations =
          ms.candidates_refined - local.bound_rejected;
      local.refine_seconds = ms.refine_seconds;
      break;
    }
    case QueryStrategy::kVectorSetScan: {
      result = ScanKnn(static_cast<int>(db_->size()), k, scan_bytes_,
                       params_.page_size_bytes, MakeScanDistance(query),
                       &local.io);
      local.candidates_refined = db_->size();
      local.filter_hits = db_->size();  // no filter: everything qualifies
      local.hungarian_invocations = db_->size();
      break;
    }
    case QueryStrategy::kVectorSetMTree: {
      size_t evals = 0;
      result = mtree_->KnnQuery(query.vector_set, k, &local.io, &evals);
      local.candidates_refined = evals;
      local.filter_hits = evals;
      local.hungarian_invocations = evals;
      break;
    }
    case QueryStrategy::kVectorSetVaFilter: {
      size_t refined = 0;
      result = centroid_vafile_->MultiStepKnn(
          query.centroid, static_cast<double>(num_covers_), k,
          MakeExactDistance(query, &local.bound_rejected), &local.io,
          &refined);
      local.candidates_refined = refined;
      local.filter_hits = refined;
      local.hungarian_invocations = refined - local.bound_rejected;
      break;
    }
  }
  FinishStageAttribution(strategy, watch.ElapsedSeconds(), &local);
  if (cost != nullptr) *cost = local;
  return result;
}

std::vector<std::vector<Neighbor>> QueryEngine::KnnJoin(
    QueryStrategy strategy, int k, QueryCost* cost) const {
  QueryCost total;
  std::vector<std::vector<Neighbor>> result(db_->size());
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    QueryCost one;
    // Query k+1 and drop the self-match (distance 0 to itself).
    std::vector<Neighbor> hits = Knn(strategy, id, k + 1, &one);
    total += one;
    std::vector<Neighbor> filtered;
    filtered.reserve(k);
    for (const Neighbor& n : hits) {
      if (n.id != id && static_cast<int>(filtered.size()) < k) {
        filtered.push_back(n);
      }
    }
    result[id] = std::move(filtered);
  }
  if (cost != nullptr) *cost = total;
  return result;
}

std::vector<Neighbor> QueryEngine::InvariantKnn(QueryStrategy strategy,
                                                const ObjectRepr& query,
                                                int k, bool with_reflections,
                                                QueryCost* cost) const {
  QueryCost total;
  const std::vector<Mat3>& group =
      with_reflections ? CubeRotationsWithReflections() : CubeRotations();
  std::map<int, double> best_by_object;
  for (const Mat3& m : group) {
    ObjectRepr oriented;
    oriented.vector_set = TransformVectorSet(query.vector_set, m);
    oriented.centroid = ExtendedCentroid(oriented.vector_set, num_covers_);
    QueryCost one;
    const std::vector<Neighbor> hits = Knn(strategy, oriented, k, &one);
    total += one;
    for (const Neighbor& n : hits) {
      auto [it, inserted] = best_by_object.emplace(n.id, n.distance);
      if (!inserted) it->second = std::min(it->second, n.distance);
    }
  }
  std::vector<Neighbor> merged;
  merged.reserve(best_by_object.size());
  for (const auto& [id, d] : best_by_object) merged.push_back({id, d});
  std::sort(merged.begin(), merged.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  if (static_cast<int>(merged.size()) > k) merged.resize(k);
  if (cost != nullptr) *cost = total;
  return merged;
}

std::vector<int> QueryEngine::InvariantRange(QueryStrategy strategy,
                                             const ObjectRepr& query,
                                             double eps,
                                             bool with_reflections,
                                             QueryCost* cost) const {
  QueryCost total;
  const std::vector<Mat3>& group =
      with_reflections ? CubeRotationsWithReflections() : CubeRotations();
  std::vector<int> merged;
  for (const Mat3& m : group) {
    ObjectRepr oriented;
    oriented.vector_set = TransformVectorSet(query.vector_set, m);
    oriented.centroid = ExtendedCentroid(oriented.vector_set, num_covers_);
    QueryCost one;
    const std::vector<int> hits = Range(strategy, oriented, eps, &one);
    total += one;
    merged.insert(merged.end(), hits.begin(), hits.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (cost != nullptr) *cost = total;
  return merged;
}

std::vector<int> QueryEngine::Range(QueryStrategy strategy,
                                    const ObjectRepr& query, double eps,
                                    QueryCost* cost) const {
  QueryCost local;
  Stopwatch watch;
  std::vector<int> result;
  switch (strategy) {
    case QueryStrategy::kVectorSetFilter: {
      MultiStepStats ms;
      result = MultiStepRange(*centroid_index_, query.centroid,
                              static_cast<double>(num_covers_), eps,
                              MakeExactDistance(query, &local.bound_rejected),
                              &local.io, &ms);
      local.candidates_refined = ms.candidates_refined;
      local.filter_hits = ms.filter_hits;
      local.hungarian_invocations =
          ms.candidates_refined - local.bound_rejected;
      local.refine_seconds = ms.refine_seconds;
      break;
    }
    case QueryStrategy::kVectorSetScan: {
      result = ScanRange(static_cast<int>(db_->size()), eps, scan_bytes_,
                         params_.page_size_bytes, MakeScanDistance(query),
                         &local.io);
      local.candidates_refined = db_->size();
      local.filter_hits = db_->size();  // no filter: everything qualifies
      local.hungarian_invocations = db_->size();
      break;
    }
    case QueryStrategy::kVectorSetMTree: {
      size_t evals = 0;
      result = mtree_->RangeQuery(query.vector_set, eps, &local.io, &evals);
      local.candidates_refined = evals;
      local.filter_hits = evals;
      local.hungarian_invocations = evals;
      break;
    }
    case QueryStrategy::kOneVectorXTree: {
      result = one_vector_index_->RangeQuery(query.cover_vector, eps,
                                             &local.io);
      break;
    }
    case QueryStrategy::kVectorSetVaFilter: {
      size_t refined = 0;
      result = centroid_vafile_->MultiStepRange(
          query.centroid, static_cast<double>(num_covers_), eps,
          MakeExactDistance(query, &local.bound_rejected), &local.io,
          &refined);
      local.candidates_refined = refined;
      local.filter_hits = refined;
      local.hungarian_invocations = refined - local.bound_rejected;
      break;
    }
  }
  FinishStageAttribution(strategy, watch.ElapsedSeconds(), &local);
  if (cost != nullptr) *cost = local;
  return result;
}

}  // namespace vsim
