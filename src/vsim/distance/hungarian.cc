#include "vsim/distance/hungarian.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

namespace vsim {

namespace {

// The solver's working arrays, reused across calls on one thread.
struct SolverScratch {
  std::vector<double> u;     // row potentials
  std::vector<double> v;     // column potentials
  std::vector<double> minv;  // Dijkstra labels of the current row
  std::vector<char> used;    // columns settled for the current row
  std::vector<int> row_of;   // row matched to each column
  std::vector<int> way;      // predecessor column on the path
  std::vector<int> column_of;
};

SolverScratch& ThreadSolverScratch() {
  thread_local SolverScratch scratch;
  return scratch;
}

}  // namespace

double SolveAssignment(const double* cost, int rows, int cols,
                       int* column_of) {
  assert(rows <= cols);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SolverScratch& s = ThreadSolverScratch();

  // 1-based arrays per the classic formulation; column 0 is a sentinel.
  s.u.assign(rows + 1, 0.0);
  s.v.assign(cols + 1, 0.0);
  s.row_of.assign(cols + 1, 0);
  s.way.assign(cols + 1, 0);
  s.minv.resize(cols + 1);
  s.used.resize(cols + 1);
  double* u = s.u.data();
  double* v = s.v.data();
  double* minv = s.minv.data();
  char* used = s.used.data();
  int* row_of = s.row_of.data();
  int* way = s.way.data();

  for (int i = 1; i <= rows; ++i) {
    // Find an augmenting path for row i (Dijkstra over reduced costs).
    row_of[0] = i;
    int j0 = 0;
    std::fill(minv, minv + cols + 1, kInf);
    std::fill(used, used + cols + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = row_of[j0];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= cols; ++j) {
        if (used[j]) continue;
        const double cur =
            cost[static_cast<size_t>(i0 - 1) * cols + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= cols; ++j) {
        if (used[j]) {
          u[row_of[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (row_of[j0] != 0);
    // Unwind the augmenting path.
    do {
      const int j1 = way[j0];
      row_of[j0] = row_of[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  if (column_of == nullptr) {
    s.column_of.resize(rows);
    column_of = s.column_of.data();
  }
  std::fill(column_of, column_of + rows, -1);
  for (int j = 1; j <= cols; ++j) {
    if (row_of[j] > 0) column_of[row_of[j] - 1] = j - 1;
  }
  double total = 0.0;
  for (int i = 0; i < rows; ++i) {
    assert(column_of[i] >= 0);
    total += cost[static_cast<size_t>(i) * cols + column_of[i]];
  }
  return total;
}

AssignmentResult SolveAssignment(const std::vector<double>& cost, int rows,
                                 int cols) {
  assert(static_cast<size_t>(rows) * cols == cost.size());
  AssignmentResult result;
  result.column_of.resize(rows);
  result.total_cost =
      SolveAssignment(cost.data(), rows, cols, result.column_of.data());
  return result;
}

}  // namespace vsim
