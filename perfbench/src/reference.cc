#include "reference.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "harness.h"

namespace perfbench {

using duet::data::Column;
using duet::data::Table;
using duet::query::PredOp;
using duet::query::Query;

namespace {

bool Satisfies(double value, PredOp op, double literal) {
  switch (op) {
    case PredOp::kEq:
      return value == literal;
    case PredOp::kGt:
      return value > literal;
    case PredOp::kLt:
      return value < literal;
    case PredOp::kGe:
      return value >= literal;
    case PredOp::kLe:
      return value <= literal;
  }
  return false;
}

/// pass[r] = row r satisfies every predicate of `query`. Each predicate is
/// evaluated once per dictionary value, then looked up per row.
std::vector<uint8_t> PassingRows(const Table& table, const Query& query) {
  std::vector<uint8_t> pass(static_cast<size_t>(table.num_rows()), 1);
  for (const duet::query::Predicate& p : query.predicates) {
    const Column& col = table.column(p.col);
    std::vector<uint8_t> value_ok(col.distinct().size());
    for (size_t code = 0; code < value_ok.size(); ++code) {
      value_ok[code] = Satisfies(col.distinct()[code], p.op, p.value) ? 1 : 0;
    }
    const std::vector<int32_t>& codes = col.codes();
    for (size_t r = 0; r < pass.size(); ++r) pass[r] &= value_ok[static_cast<size_t>(codes[r])];
  }
  return pass;
}

}  // namespace

double QError(double estimate_rows, double true_rows) {
  const double e = std::max(estimate_rows, 1.0);
  const double t = std::max(true_rows, 1.0);
  return std::max(e, t) / std::min(e, t);
}

uint64_t RowScanCount(const Table& table, const Query& query) {
  const std::vector<uint8_t> pass = PassingRows(table, query);
  return static_cast<uint64_t>(std::count(pass.begin(), pass.end(), uint8_t{1}));
}

double MedianQError(const duet::data::Table& table, const std::vector<duet::query::Query>& queries,
                    const std::vector<std::vector<double>>& selectivities) {
  const double rows = static_cast<double>(table.num_rows());
  std::vector<double> qerrors;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double truth = static_cast<double>(RowScanCount(table, queries[i]));
    for (const std::vector<double>& sel : selectivities) {
      qerrors.push_back(QError(sel[i] * rows, truth));
    }
  }
  return Median(std::move(qerrors));
}

StarJoinReference::StarJoinReference(const std::vector<const Table*>& tables,
                                     const std::vector<Query>& filters, int join_col) {
  if (tables.size() != filters.size() || tables.size() < 2 || tables.size() > 10) {
    throw std::invalid_argument("StarJoinReference: 2..10 tables, one filter each");
  }
  // Join keys match by value: unify the key values across tables first.
  std::map<double, size_t> value_index;
  for (const Table* t : tables) {
    for (double v : t->column(join_col).distinct()) value_index.emplace(v, 0);
  }
  size_t next = 0;
  for (auto& [value, index] : value_index) index = next++;
  for (size_t t = 0; t < tables.size(); ++t) {
    const Table& table = *tables[t];
    const Column& key = table.column(join_col);
    const std::vector<uint8_t> pass = PassingRows(table, filters[t]);
    std::vector<uint64_t> counts(value_index.size(), 0);
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (pass[static_cast<size_t>(r)]) counts[value_index.at(key.Value(key.code(r)))]++;
    }
    counts_.push_back(std::move(counts));
  }
  const uint32_t full = (1u << tables.size()) - 1u;
  subset_card_.assign(full + 1, 0.0);
  for (uint32_t s = 1; s <= full; ++s) {
    // Per-value products in 128-bit integers, so the sum is exact before
    // the one conversion to double.
    unsigned __int128 total = 0;
    for (size_t v = 0; v < value_index.size(); ++v) {
      unsigned __int128 prod = 1;
      for (size_t t = 0; t < counts_.size(); ++t) {
        if (s & (1u << t)) prod *= counts_[t][v];
      }
      total += prod;
    }
    subset_card_[s] = static_cast<double>(total);
  }
}

double StarJoinReference::SubsetCard(uint32_t subset) const { return subset_card_.at(subset); }

double StarJoinReference::COut(const std::vector<int>& order) const {
  double cost = 0.0;
  uint32_t prefix = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    prefix |= 1u << order[i];
    if (i >= 1) cost += subset_card_.at(prefix);
  }
  return cost;
}

double StarJoinReference::OptimalCOut() const {
  std::vector<int> order(static_cast<size_t>(num_tables()));
  std::iota(order.begin(), order.end(), 0);
  double best = COut(order);
  while (std::next_permutation(order.begin(), order.end())) best = std::min(best, COut(order));
  return best;
}

double StarJoinReference::PError(const std::vector<int>& order) const {
  return (COut(order) + 1.0) / (OptimalCOut() + 1.0);
}

// ----- self-test on hand-built tables -----

namespace {

Table MakeTable(const std::string& name, const std::vector<std::vector<double>>& columns) {
  std::vector<Column> cols;
  for (size_t c = 0; c < columns.size(); ++c) {
    cols.push_back(Column::FromValues(name + "_c" + std::to_string(c), columns[c]));
  }
  return Table(name, std::move(cols));
}

Query MakeQuery(std::vector<duet::query::Predicate> predicates) {
  Query q;
  q.predicates = std::move(predicates);
  return q;
}

}  // namespace

std::vector<std::string> RunReferenceSelfTest() {
  std::vector<std::string> failures;
  auto expect = [&failures](double got, double want, const std::string& what) {
    if (got != want) {
      failures.push_back(what + ": got " + std::to_string(got) + ", want " +
                         std::to_string(want));
    }
  };

  // Rows (a, b): (1,10) (2,10) (3,20) (4,20) (5,30) (5,30).
  const Table t = MakeTable("t", {{1, 2, 3, 4, 5, 5}, {10, 10, 20, 20, 30, 30}});
  expect(static_cast<double>(RowScanCount(t, Query{})), 6, "no predicate");
  expect(static_cast<double>(RowScanCount(t, MakeQuery({{0, PredOp::kEq, 5}}))), 2, "a = 5");
  expect(static_cast<double>(RowScanCount(t, MakeQuery({{0, PredOp::kGt, 2}}))), 4, "a > 2");
  expect(static_cast<double>(RowScanCount(t, MakeQuery({{0, PredOp::kLt, 2}}))), 1, "a < 2");
  expect(static_cast<double>(RowScanCount(t, MakeQuery({{0, PredOp::kGt, 5}}))), 0, "a > 5");
  expect(static_cast<double>(RowScanCount(t, MakeQuery({{0, PredOp::kEq, 2.5}}))), 0,
         "a = 2.5 (absent value)");
  expect(static_cast<double>(
             RowScanCount(t, MakeQuery({{0, PredOp::kGe, 3}, {1, PredOp::kLe, 20}}))),
         2, "a >= 3 and b <= 20");
  expect(static_cast<double>(
             RowScanCount(t, MakeQuery({{0, PredOp::kLe, 4}, {1, PredOp::kEq, 10}}))),
         2, "a <= 4 and b = 10");
  expect(static_cast<double>(
             RowScanCount(t, MakeQuery({{0, PredOp::kGe, 2}, {0, PredOp::kLe, 3}}))),
         2, "2 <= a <= 3");

  // Star join on column 0. Key counts: A {1:2, 2:1, 3:1}, B {1:1, 2:3},
  // C {1:1, 3:2}. |AB| = 2+3 = 5, |AC| = 2+2 = 4, |BC| = 1, |ABC| = 2.
  // C_out(first pair, then the third) = |pair| + |ABC|: AB 7, AC 6, BC 3.
  const Table a = MakeTable("a", {{1, 1, 2, 3}, {10, 20, 10, 30}});
  const Table b = MakeTable("b", {{1, 2, 2, 2}, {5, 5, 6, 7}});
  const Table c = MakeTable("c", {{1, 3, 3}, {0, 0, 1}});
  const std::vector<const Table*> abc = {&a, &b, &c};
  {
    const StarJoinReference ref(abc, {Query{}, Query{}, Query{}}, 0);
    expect(ref.SubsetCard(0b011), 5, "|AB|");
    expect(ref.SubsetCard(0b101), 4, "|AC|");
    expect(ref.SubsetCard(0b110), 1, "|BC|");
    expect(ref.SubsetCard(0b111), 2, "|ABC|");
    expect(ref.COut({0, 1, 2}), 7, "C_out(A,B,C)");
    expect(ref.COut({2, 0, 1}), 6, "C_out(C,A,B)");
    expect(ref.COut({1, 2, 0}), 3, "C_out(B,C,A)");
    expect(ref.OptimalCOut(), 3, "optimal C_out");
    expect(ref.PError({0, 1, 2}), 8.0 / 4.0, "P-error(A,B,C)");
    expect(ref.PError({2, 1, 0}), 1.0, "P-error(C,B,A)");
  }
  // Filter A to x >= 20: A keys {1:1, 3:1}. |AB| = 1, |AC| = 1+2 = 3,
  // |BC| = 1, |ABC| = 1; C_out: AB 2, AC 4, BC 2; optimum 2.
  {
    const StarJoinReference ref(abc, {MakeQuery({{1, PredOp::kGe, 20}}), Query{}, Query{}}, 0);
    expect(ref.SubsetCard(0b011), 1, "filtered |AB|");
    expect(ref.SubsetCard(0b101), 3, "filtered |AC|");
    expect(ref.SubsetCard(0b111), 1, "filtered |ABC|");
    expect(ref.COut({0, 2, 1}), 4, "filtered C_out(A,C,B)");
    expect(ref.OptimalCOut(), 2, "filtered optimal C_out");
  }
  return failures;
}

}  // namespace perfbench
