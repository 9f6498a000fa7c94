// Kuhn-Munkres / Hungarian algorithm for the linear assignment problem,
// the O(k^3) machinery behind the minimal matching distance (Section
// 4.2). Implemented as shortest augmenting paths with dual potentials
// (Jonker-Volgenant formulation), supporting rectangular cost matrices
// with rows <= columns (every row is assigned to a distinct column).
//
// There is one solver body. It works in per-thread scratch (the duals,
// the Dijkstra labels and the matching live in a thread_local
// workspace), so once a thread has solved a problem of a given size,
// solving another one no larger makes no heap allocation. Threads never
// share the workspace, so concurrent solves need no synchronisation.
#ifndef VSIM_DISTANCE_HUNGARIAN_H_
#define VSIM_DISTANCE_HUNGARIAN_H_

#include <vector>

namespace vsim {

struct AssignmentResult {
  // column_of[i] = column assigned to row i.
  std::vector<int> column_of;
  double total_cost = 0.0;
};

// Solves min sum_i cost[i][column_of[i]] over injective assignments of
// all rows to columns. `cost` is row-major with `rows` x `cols`,
// rows <= cols. Costs may be any finite doubles. Allocates only the
// returned column_of.
AssignmentResult SolveAssignment(const std::vector<double>& cost, int rows,
                                 int cols);

// The same solve on a caller-owned row-major matrix, allocation-free
// after the thread's first solve of this size. Writes the assignment to
// column_of[0, rows) when it is non-null. Returns the optimal total
// sum_i cost[i][column_of[i]], summed in row order.
double SolveAssignment(const double* cost, int rows, int cols,
                       int* column_of);

}  // namespace vsim

#endif  // VSIM_DISTANCE_HUNGARIAN_H_
