// The benchmark's own answers, computed apart from the program:
//
//  * RowScanCount — the exact cardinality of a conjunctive query by
//    scanning the rows and comparing raw dictionary values against each
//    predicate (no CodeRange translation, no library evaluator);
//  * StarJoinReference — exact subset cardinalities of a star join from
//    per-key-value counts of filtered rows, and a brute-force enumeration
//    of every left-deep join order under the C_out metric (sum of the
//    intermediate result sizes, the metric the optimizer's DP minimises).
//
// Both are checked against hand-computed answers on tiny hand-built tables
// by RunReferenceSelfTest, run at the start of every benchmark run.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "query/query.h"

namespace perfbench {

/// Exact number of rows of `table` that satisfy every predicate of `query`.
uint64_t RowScanCount(const duet::data::Table& table, const duet::query::Query& query);

/// Q-error of an estimate against the exact count, both clamped at one row.
double QError(double estimate_rows, double true_rows);

/// Median q-error of several models' selectivities for `queries`
/// (`selectivities[m][i]` is model m's answer to query i) against the
/// row-scan counts.
double MedianQError(const duet::data::Table& table, const std::vector<duet::query::Query>& queries,
                    const std::vector<std::vector<double>>& selectivities);

/// Exact star-join statistics over tables joined on `join_col` by value.
class StarJoinReference {
 public:
  StarJoinReference(const std::vector<const duet::data::Table*>& tables,
                    const std::vector<duet::query::Query>& filters, int join_col);

  int num_tables() const { return static_cast<int>(counts_.size()); }

  /// Exact cardinality of joining the tables in `subset` (bitmask over
  /// table indices), each filtered by its own predicate.
  double SubsetCard(uint32_t subset) const;

  /// C_out of a left-deep order: the sum of the cardinalities of every
  /// joined prefix of two or more tables.
  double COut(const std::vector<int>& order) const;

  /// Minimum C_out over every permutation of the tables (brute force).
  double OptimalCOut() const;

  /// Plan-cost ratio (P-error) of `order`: (C_out + 1) / (optimal + 1),
  /// the +1 guarding empty joins as the program's planner does.
  double PError(const std::vector<int>& order) const;

 private:
  /// counts_[t][v] = filtered rows of table t whose join value is values_[v].
  std::vector<std::vector<uint64_t>> counts_;
  std::vector<double> subset_card_;  // memo, indexed by bitmask
};

/// Checks both references against hand-computed answers. Returns one line
/// per mismatch (empty = all good).
std::vector<std::string> RunReferenceSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
