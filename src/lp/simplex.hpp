// Dense primal simplex linear-programming solver.
//
// The paper computes the optimal max-link-utilisation with Google
// OR-Tools' LP solver (§V-A); this module is the from-scratch replacement.
// It solves
//
//     minimise    c . x
//     subject to  A x {<=, =, >=} b,    x >= 0
//
// on a dense tableau.  A caller that knows a feasible basis passes it to
// solve(): its columns are pivoted in and only phase 2 optimises the real
// objective.  Without one — or when the given basis is unusable — the
// textbook two-phase method runs: phase 1 minimises the sum of artificial
// variables to find a basic feasible solution, phase 2 optimises the
// objective.  Dantzig pricing is used with an automatic switch to Bland's
// rule when progress stalls, which guarantees termination.  A pivot
// touches only the pivot row's non-zero columns.  Problem sizes in this
// repository (destination-aggregated multicommodity flow on
// Topology-Zoo-scale graphs) stay well inside what a dense tableau handles
// comfortably.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace gddr::lp {

enum class Relation { kLe, kEq, kGe };

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  // Values of the original variables (empty unless kOptimal).
  std::vector<double> x;
};

std::string to_string(SolveStatus status);

class LinearProgram {
 public:
  // Adds a variable with the given objective coefficient (x_i >= 0
  // implicitly); returns its index.
  int add_variable(double objective_coeff);

  int num_variables() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  // Adds the constraint  sum_j terms[j].second * x_{terms[j].first}  rel  rhs.
  // Variable indices must already exist.  Duplicate indices in one
  // constraint are summed.
  void add_constraint(const std::vector<std::pair<int, double>>& terms,
                      Relation rel, double rhs);

  // `start`, when non-empty, is a starting basis with one entry per
  // constraint: the structural variable to make basic in that row, or -1
  // to keep the row's own slack (an equality or >= row has none, so it
  // needs a variable).  The entries are pivoted in row order; when they
  // form a feasible basis, phase 1 is skipped.  A start of the wrong size,
  // one that meets a zero pivot element, leaves an equality or >= row
  // without a variable or gives a negative basic value is dropped (counted
  // in "lp/start_fallbacks") and the two-phase solve runs instead.  Its
  // pivots count in "lp/pivots" either way.  A phase that outruns the
  // size-derived pivot budget set in solve() (simplex.cpp) ends in
  // kIterationLimit.
  Solution solve(std::span<const int> start = {}) const;

 private:
  struct Row {
    std::vector<std::pair<int, double>> terms;
    Relation rel;
    double rhs;
  };

  std::vector<double> objective_;
  std::vector<Row> rows_;
};

}  // namespace gddr::lp
