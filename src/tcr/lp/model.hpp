// Linear-program model builder and solution types.
//
// A Model holds columns (variables with bounds and objective coefficients)
// and rows (linear constraints with a sense and right-hand side), accumulated
// as triplets. Solvers convert it to their internal standard form.
//
// This is the interface on which all of the paper's routing-design problems
// (capacity (6), worst-case (8)/(10), average-case (15), path-restricted
// variants) are expressed; see tcr/core/.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tcr/lin/sparse.hpp"

namespace tcr::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { Minimize, Maximize };
enum class RowType { LE, GE, EQ };

enum class Status {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  Numerical,
  /// Stopped cooperatively by a guard::CancelToken (deadline, budget or
  /// signal; SimplexOptions::cancel). The solution is partial: the exported
  /// basis is the best-so-far point and can warm-start a continuation, and
  /// the note carries the token's stop diagnosis. Unlike Numerical, the
  /// recovery ladder never re-solves a cancelled attempt.
  Cancelled,
};

const char* to_string(Status s);

/// Independent optimality certificate for a Solution, produced by
/// lp::certify() (lp/certify.hpp) from the Model and the solution values
/// alone — never from the solver's factorization. All residuals are
/// *relative* (scaled by the magnitude of the data they involve), so a
/// passing certificate means the KKT conditions hold to the stated
/// tolerances regardless of problem scaling. A default-constructed
/// Certificate reports checked == false (nothing was verified).
struct Certificate {
  bool checked = false;  // certify() ran on this solution
  bool pass = false;     // every residual below its tolerance
  double primal_residual = 0.0;     // max relative row violation
  double bound_violation = 0.0;     // max relative variable-bound violation
  double objective_residual = 0.0;  // reported objective vs c'x
  double dual_residual = 0.0;       // reported reduced costs vs c - A'y
  double dual_violation = 0.0;      // reduced-cost sign violations at x
  double row_dual_violation = 0.0;  // row-dual sign violations (LE/GE rows)
  double complementarity = 0.0;     // max relative slackness product
  double duality_gap = 0.0;         // relative primal-dual objective gap
  std::string reason;  // first/worst failed check; empty when pass

  bool ok() const { return checked && pass; }
  /// Largest residual measure (the number a failing solve is judged by).
  double worst() const;
  /// One-line human-readable summary for notes and logs.
  std::string summary() const;
};

/// Simplex basis snapshot in *standard-form* column space: the structural
/// columns, then one logical column per row, in row order (column
/// num_cols() + i is row i's slack, surplus or fixed EQ logical). Exported
/// on every Solution and accepted back by lp::solve() as its start basis. A
/// basis is only meaningful for a model with the same numbers of rows and
/// columns as the one that produced it; lp::solve() validates the supplied
/// basis, repairs singular positions with the logicals of the rows they
/// leave uncovered, re-optimizes a dual-feasible one whose point an rhs edit
/// moved out of bounds with the dual simplex, runs phase 1 from any other,
/// and falls back to a cold start only when the basis is malformed or
/// cannot be repaired (see lp.warmstart.* and lp.dual.* obs counters).
/// lp::crash_from_point() builds one from a feasible point.
struct Basis {
  /// Per standard-form column: 0 = basic, 1 = at lower bound, 2 = at upper
  /// bound, 3 = free at zero (matches lp::detail::VarStatus).
  std::vector<std::uint8_t> stat;
  /// Basic column per row (size = number of rows).
  std::vector<int> basic;
  /// Dual steepest-edge weight of each basis position, ||B^-T e_i||^2, or 0
  /// where the dual simplex never needed it. Exported only when the basis
  /// is the one a dual phase ended on (else empty); lp::solve() adopts the
  /// weights only with a warm basis it accepts unchanged for the dual
  /// phase, and drops them when their size or any entry is invalid.
  std::vector<double> weights;

  bool empty() const { return basic.empty(); }
};

struct Solution {
  Status status = Status::Numerical;
  double objective = 0.0;
  std::vector<double> x;        // structural variable values
  std::vector<double> duals;    // one per row (simplex multipliers y)
  std::vector<double> reduced;  // reduced costs of structural variables
  long iterations = 0;          // simplex iterations of the returned attempt
  /// Iterations phase 1 ran (after the dual phase, when that gave up).
  /// Included in `iterations`, apart from `dual_iterations`.
  long phase1_iterations = 0;
  /// Iterations spent in the dual simplex phase: a warm basis left
  /// dual-feasible but primal-infeasible by an rhs edit is driven back to
  /// optimality by dual pivots instead of phase 1. 0 when the dual phase
  /// did not run. Included in `iterations`.
  long dual_iterations = 0;
  /// Human-readable diagnosis of why a non-optimal solve stopped (e.g.
  /// "iteration limit after 312 degenerate pivots"). Empty when Optimal,
  /// unless the recovery ladder ran out with a failing certificate — then it
  /// records every stage's outcome.
  std::string note;
  /// Filled by lp::solve() when SimplexOptions::certify is on and the solve
  /// reached Status::Optimal; default (checked == false) otherwise.
  Certificate certificate;
  /// Final simplex basis, exported on every outcome (including failures, so
  /// the recovery ladder and sweep chaining can restart from it).
  Basis basis;
  /// How the start basis fared: "cold" (none given), "accepted" (adopted
  /// unchanged), "repaired" (after patching) or "rejected" (unusable; the
  /// solve cold-started). Mirrors the lp.warmstart.* obs counters, per solve
  /// instead of in aggregate. SymmetricArcDesign::solve() relabels the
  /// start bases it builds itself.
  std::string warm_start = "cold";

  bool optimal() const { return status == Status::Optimal; }
};

class Model {
 public:
  /// Add a variable with bounds [lo, up] and objective coefficient `cost`.
  int add_col(double lo, double up, double cost);

  /// Add an empty constraint row; populate with add_term().
  int add_row(RowType type, double rhs);

  /// Add (or accumulate) a coefficient. Duplicate (row, col) terms sum.
  void add_term(int row, int col, double coeff);

  /// Convenience: add a fully-formed row in one call.
  int add_row(RowType type, double rhs, const std::vector<std::pair<int, double>>& terms);

  void set_sense(Sense s) { sense_ = s; }
  Sense sense() const { return sense_; }

  void set_cost(int col, double cost);

  /// Rewrite a row's right-hand side in place. The row keeps its type and
  /// coefficients; incremental sweeps use this to move one bound between
  /// otherwise identical solves (see SymmetricArcDesign::set_locality_bound).
  void set_rhs(int row, double rhs);

  int num_cols() const { return static_cast<int>(lo_.size()); }
  int num_rows() const { return static_cast<int>(rhs_.size()); }
  std::size_t num_terms() const { return triplets_.size(); }

  double lower(int col) const { return lo_[col]; }
  double upper(int col) const { return up_[col]; }
  double cost(int col) const { return cost_[col]; }
  RowType row_type(int row) const { return type_[row]; }
  double rhs(int row) const { return rhs_[row]; }
  const std::vector<Triplet>& triplets() const { return triplets_; }

  /// Objective value of a given structural assignment (ignores feasibility).
  double objective_value(const std::vector<double>& x) const;

  /// Maximum constraint violation of an assignment (for verification).
  double max_violation(const std::vector<double>& x) const;

 private:
  Sense sense_ = Sense::Minimize;
  std::vector<double> lo_, up_, cost_;
  std::vector<RowType> type_;
  std::vector<double> rhs_;
  std::vector<Triplet> triplets_;
};

}  // namespace tcr::lp
