#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "lp/lp_invariants.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace gddr::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

int LinearProgram::add_variable(double objective_coeff) {
  objective_.push_back(objective_coeff);
  return num_variables() - 1;
}

void LinearProgram::add_constraint(
    const std::vector<std::pair<int, double>>& terms, Relation rel,
    double rhs) {
  for (const auto& [idx, coeff] : terms) {
    (void)coeff;
    if (idx < 0 || idx >= num_variables()) {
      throw std::out_of_range("add_constraint: unknown variable index");
    }
  }
  rows_.push_back(Row{terms, rel, rhs});
}

namespace {

// Dense tableau with an attached cost row; column layout is
// [structural | slack/surplus | artificial | rhs].
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
    pivot_nz_.reserve(cols);
  }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // Gaussian pivot on (pr, pc): pivot row scaled to make the pivot 1, the
  // pivot column eliminated from every other row including the cost row.
  // Only the pivot row's non-zero columns can change another row, so they
  // are gathered once and each row with a non-zero factor updates just
  // those; the values match a full-row update exactly.
  void pivot(std::size_t pr, std::size_t pc) {
    double* prow = &data_[pr * cols_];
    const double inv = 1.0 / prow[pc];
    pivot_nz_.clear();
    for (std::size_t c = 0; c < cols_; ++c) {
      if (prow[c] == 0.0) continue;
      prow[c] *= inv;
      pivot_nz_.push_back(c);
    }
    prow[pc] = 1.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* row = &data_[r * cols_];
      const double factor = row[pc];
      if (factor == 0.0) continue;
      for (const std::size_t c : pivot_nz_) row[c] -= factor * prow[c];
      row[pc] = 0.0;
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  // Column indices of the current pivot row's non-zeros; reserved once so
  // a pivot never allocates.
  std::vector<std::size_t> pivot_nz_;
  std::vector<double> data_;
};

struct SimplexState {
  // Tableau [structural | slack/surplus | artificial | rhs]; the layout a
  // start basis is pivoted into has no artificial columns, so there
  // artificial_begin == total_cols.
  SimplexState(std::size_t rows, std::size_t cols,
               std::size_t first_artificial, std::size_t& pivot_count)
      : tableau(rows + 1, cols + 1),
        basis(rows, -1),
        m(rows),
        total_cols(cols),
        rhs_col(cols),
        cost_row(rows),
        artificial_begin(first_artificial),
        pivots(pivot_count) {}

  Tableau tableau;
  std::vector<int> basis;        // basis[r] = column basic in row r, or -1
  std::size_t m;                 // constraint rows
  std::size_t total_cols;        // structural + slack (+ artificial)
  std::size_t rhs_col;
  std::size_t cost_row;
  std::size_t artificial_begin;  // first artificial column
  std::size_t& pivots;           // the solve's pivots, over every tableau
};

// Flushes the pivot count to the metrics registry on every exit path of
// solve() (optimal, infeasible, unbounded, iteration limit alike).
struct PivotRecorder {
  const std::size_t& pivots;
  ~PivotRecorder() {
    if (!obs::enabled()) return;
    obs::count("lp/solves");
    obs::count("lp/pivots", pivots);
    obs::observe("lp/pivots_per_solve", static_cast<double>(pivots));
  }
};

enum class IterateResult { kOptimal, kUnbounded, kIterationLimit };

// Runs simplex iterations on the current cost row.  Columns >= col_limit
// are never allowed to enter the basis (used to freeze artificials in
// phase 2).
//
// Phase 2's pricing, ratio test and inlined Tableau::pivot are where a
// solve spends its time, and their speed depends on where the linker
// places this function: a change that only resized unrelated code once
// moved it from offset 16 to 48 of a cache line and slowed perfbench
// eval_geant by 15-20%.  Re-measured with the shortest-path-tree start
// (4 vCPU, g++ 12.2, Release, six alternating 10-s runs per build), the
// pin still pays: median 1304 matrices/s with it, 1238 without, 1369
// with every function aligned to 64 bytes.  Starting the function on a
// cache line pins that layout.
__attribute__((aligned(64)))
IterateResult iterate(SimplexState& s, std::size_t col_limit,
                      const LinearProgram::Options& options,
                      std::size_t max_iterations) {
  const double pivot_tol = options.pivot_tolerance;
  const std::size_t degenerate_limit =
      options.degenerate_pivot_limit > 0 ? options.degenerate_pivot_limit
                                         : 1;
  std::size_t degenerate = 0;
  double last_objective = std::numeric_limits<double>::infinity();
  bool bland = false;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    // --- entering column ---
    std::size_t entering = s.total_cols;  // sentinel: none
    if (bland) {
      for (std::size_t c = 0; c < col_limit; ++c) {
        if (s.tableau.at(s.cost_row, c) < -pivot_tol) {
          entering = c;
          break;
        }
      }
    } else {
      double best = -pivot_tol;
      for (std::size_t c = 0; c < col_limit; ++c) {
        const double rc = s.tableau.at(s.cost_row, c);
        if (rc < best) {
          best = rc;
          entering = c;
        }
      }
    }
    if (entering == s.total_cols) return IterateResult::kOptimal;

    // --- ratio test ---
    std::size_t leaving_row = s.m;  // sentinel: none
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < s.m; ++r) {
      const double a = s.tableau.at(r, entering);
      if (a > pivot_tol) {
        const double ratio = s.tableau.at(r, s.rhs_col) / a;
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 &&
             (leaving_row == s.m ||
              s.basis[r] < s.basis[leaving_row]))) {
          best_ratio = ratio;
          leaving_row = r;
        }
      }
    }
    if (leaving_row == s.m) return IterateResult::kUnbounded;

    s.tableau.pivot(leaving_row, entering);
    s.basis[leaving_row] = static_cast<int>(entering);
    ++s.pivots;

    // --- anti-cycling ---
    // A pivot that fails to strictly improve the objective is degenerate;
    // a bounded run of them flips pricing to Bland's rule (the entering
    // selection above plus the smallest-basis-index ratio tie-break),
    // under which the simplex provably cannot revisit a basis.  Bland
    // stays engaged until the objective strictly improves again, so a
    // cycle cannot re-form by bouncing between pricing rules.
    const double objective = -s.tableau.at(s.cost_row, s.rhs_col);
    if (objective < last_objective - 1e-12) {
      degenerate = 0;
      bland = false;
    } else if (++degenerate >= degenerate_limit) {
      bland = true;
    }
    last_objective = objective;
  }
  return IterateResult::kIterationLimit;
}

// Loads `costs` (indexed over all columns except rhs) into the cost row and
// prices out the current basic variables so reduced costs are consistent.
void install_costs(SimplexState& s, const std::vector<double>& costs) {
  for (std::size_t c = 0; c < s.total_cols; ++c) {
    s.tableau.at(s.cost_row, c) = costs[c];
  }
  s.tableau.at(s.cost_row, s.rhs_col) = 0.0;
  for (std::size_t r = 0; r < s.m; ++r) {
    const auto bc = static_cast<std::size_t>(s.basis[r]);
    const double cost = costs[bc];
    if (cost == 0.0) continue;
    for (std::size_t c = 0; c <= s.rhs_col; ++c) {
      s.tableau.at(s.cost_row, c) -= cost * s.tableau.at(r, c);
    }
  }
}

// Pivots start[r] into row r for every row that names a structural column
// (rows with -1 keep their slack), in row order.  True when that leaves a
// basic feasible solution phase 2 can start from: every pivot element
// above the pivot tolerance, every row with a basic column (a row without
// a slack has none until the start gives it one), and every basic value
// >= -feasibility_tolerance.
bool pivot_in_start(SimplexState& s, std::span<const int> start,
                    std::size_t num_structural,
                    const LinearProgram::Options& options) {
  if (start.size() != s.m) return false;
  for (std::size_t r = 0; r < s.m; ++r) {
    if (start[r] == -1) continue;
    if (start[r] < 0 ||
        static_cast<std::size_t>(start[r]) >= num_structural) {
      return false;
    }
    const auto c = static_cast<std::size_t>(start[r]);
    if (std::abs(s.tableau.at(r, c)) <= options.pivot_tolerance) return false;
    s.tableau.pivot(r, c);
    s.basis[r] = start[r];
    ++s.pivots;
  }
  for (std::size_t r = 0; r < s.m; ++r) {
    if (s.basis[r] < 0 ||
        s.tableau.at(r, s.rhs_col) < -options.feasibility_tolerance) {
      return false;
    }
  }
  return true;
}

// Phase 2 from a basic feasible solution: minimises the real objective
// with artificials barred from entering, then reads the solution off the
// basis.
Solution optimise(SimplexState& s, const std::vector<double>& objective,
                  const LinearProgram::Options& options,
                  std::size_t max_iterations) {
  const std::size_t n = objective.size();
  std::vector<double> costs(s.total_cols, 0.0);
  std::copy(objective.begin(), objective.end(), costs.begin());
  install_costs(s, costs);
  Solution solution;
  const IterateResult result =
      iterate(s, s.artificial_begin, options, max_iterations);
  if (result == IterateResult::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }
  if (result == IterateResult::kIterationLimit) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }

  // Optimum reached: basis still valid, and the solve's pivot count stayed
  // inside the two phase budgets plus the <= m start pivots and the <= m
  // drive-out pivots.
  GDDR_VALIDATE([&] {
    check_basis(s.basis, s.total_cols, "lp/phase2/basis");
    check_pivot_bound(s.pivots, 2 * max_iterations + 2 * s.m,
                      "lp/solve/pivots");
  }());

  solution.status = SolveStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < s.m; ++r) {
    const auto bc = static_cast<std::size_t>(s.basis[r]);
    if (bc < n) solution.x[bc] = s.tableau.at(r, s.rhs_col);
  }
  solution.objective = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    solution.objective += objective[c] * solution.x[c];
  }
  return solution;
}

}  // namespace

Solution LinearProgram::solve(const Options& options,
                              std::span<const int> start) const {
  const auto n = static_cast<std::size_t>(num_variables());
  const auto m = static_cast<std::size_t>(num_constraints());

  // Count auxiliary columns.  RHS is normalised to >= 0 first (a row with
  // a negative RHS is multiplied by -1 and its relation flipped).
  std::vector<Relation> rel(m);
  std::vector<double> sign(m, 1.0);
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (std::size_t r = 0; r < m; ++r) {
    rel[r] = rows_[r].rel;
    if (rows_[r].rhs < 0.0) {
      sign[r] = -1.0;
      if (rel[r] == Relation::kLe) {
        rel[r] = Relation::kGe;
      } else if (rel[r] == Relation::kGe) {
        rel[r] = Relation::kLe;
      }
    }
    switch (rel[r]) {
      case Relation::kLe:
        ++num_slack;
        break;
      case Relation::kGe:
        ++num_slack;  // surplus
        ++num_artificial;
        break;
      case Relation::kEq:
        ++num_artificial;
        break;
    }
  }
  const std::size_t artificial_begin = n + num_slack;
  const std::size_t max_iters =
      options.max_iterations > 0
          ? options.max_iterations
          : 200 * (m + artificial_begin + num_artificial) + 10000;

  std::size_t pivots = 0;
  const PivotRecorder recorder{pivots};
  obs::ScopedTimer solve_timer("lp/solve");

  // Fills the constraint rows of a fresh tableau.  Every slack starts
  // basic in its row; with artificial columns, so does every artificial,
  // which makes the initial basis complete.
  const auto load_rows = [&](SimplexState& s, bool with_artificials) {
    std::size_t slack_cursor = n;
    std::size_t artificial_cursor = artificial_begin;
    for (std::size_t r = 0; r < m; ++r) {
      for (const auto& [idx, coeff] : rows_[r].terms) {
        s.tableau.at(r, static_cast<std::size_t>(idx)) += sign[r] * coeff;
      }
      s.tableau.at(r, s.rhs_col) = sign[r] * rows_[r].rhs;
      switch (rel[r]) {
        case Relation::kLe:
          s.tableau.at(r, slack_cursor) = 1.0;
          s.basis[r] = static_cast<int>(slack_cursor);
          ++slack_cursor;
          break;
        case Relation::kGe:
          s.tableau.at(r, slack_cursor) = -1.0;  // surplus
          ++slack_cursor;
          break;
        case Relation::kEq:
          break;
      }
      if (with_artificials && rel[r] != Relation::kLe) {
        s.tableau.at(r, artificial_cursor) = 1.0;
        s.basis[r] = static_cast<int>(artificial_cursor);
        ++artificial_cursor;
      }
    }
  };

  // A feasible start basis replaces phase 1.  It is pivoted into a tableau
  // without artificial columns, which phase 2 never lets enter; an
  // unusable start is dropped with its tableau before the two-phase one is
  // built.
  if (!start.empty()) {
    SimplexState s(m, artificial_begin, artificial_begin, pivots);
    load_rows(s, /*with_artificials=*/false);
    if (pivot_in_start(s, start, n, options)) {
      GDDR_VALIDATE(check_basis(s.basis, s.total_cols, "lp/start/basis"));
      return optimise(s, objective_, options, max_iters);
    }
    obs::count("lp/start_fallbacks");
  }

  const std::size_t total_cols = artificial_begin + num_artificial;
  SimplexState s(m, total_cols, artificial_begin, pivots);
  load_rows(s, /*with_artificials=*/true);
  GDDR_VALIDATE(check_basis(s.basis, total_cols, "lp/setup/basis"));

  // --- Phase 1: minimise the sum of artificials ---
  if (num_artificial > 0) {
    std::vector<double> phase1_costs(total_cols, 0.0);
    for (std::size_t c = artificial_begin; c < total_cols; ++c) {
      phase1_costs[c] = 1.0;
    }
    install_costs(s, phase1_costs);
    const IterateResult r1 = iterate(s, total_cols, options, max_iters);
    if (r1 == IterateResult::kIterationLimit) {
      Solution solution;
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }
    const double phase1_obj = -s.tableau.at(s.cost_row, s.rhs_col);
    if (phase1_obj > options.feasibility_tolerance) {
      Solution solution;
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    // Drive any artificial still basic (at value ~0) out of the basis if a
    // usable pivot exists; otherwise the row is redundant and harmless.
    for (std::size_t r = 0; r < m; ++r) {
      if (static_cast<std::size_t>(s.basis[r]) < artificial_begin) continue;
      for (std::size_t c = 0; c < artificial_begin; ++c) {
        if (std::abs(s.tableau.at(r, c)) > options.pivot_tolerance) {
          s.tableau.pivot(r, c);
          s.basis[r] = static_cast<int>(c);
          ++s.pivots;
          break;
        }
      }
    }
    // Phase 1 ended on a feasible basis: the basis must still be valid and
    // every basic value (the RHS column) non-negative within tolerance.
    GDDR_VALIDATE([&] {
      check_basis(s.basis, total_cols, "lp/phase1/basis");
      std::vector<double> basic_values(m);
      for (std::size_t r = 0; r < m; ++r) {
        basic_values[r] = s.tableau.at(r, s.rhs_col);
      }
      check_rhs_nonnegative(basic_values, options.feasibility_tolerance,
                            "lp/phase1/rhs");
    }());
  }

  // --- Phase 2: minimise the real objective; artificials may not enter ---
  return optimise(s, objective_, options, max_iters);
}

}  // namespace gddr::lp
