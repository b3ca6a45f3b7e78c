// Per-layer probes. Every workload's traced run prints the same per-layer
// metrics, so the probes here run in each of them against that workload's
// own table, model, artifact and queries: repeated timing of calls into one
// layer's public functions, made from outside the library.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/table.h"
#include "harness.h"
#include "optimizer/card_provider.h"
#include "query/query.h"
#include "query/workload.h"

namespace perfbench {

/// Runs `fn` `calls` times per block for `blocks` blocks, one span named
/// `span_name` per block; returns the median over blocks of the per-call
/// time in microseconds.
double MedianCallUs(Run& run, const char* span_name, int calls, int blocks,
                    const std::function<void()>& fn);

/// A star-join table: join key (column 0) on the value domain
/// 0..key_domain-1 shared by every table (keys match by value), and two
/// filter columns whose correlation with the key's latent factor is
/// `correlation`.
duet::data::Table MakeStarTable(const std::string& name, int64_t rows, int32_t key_domain,
                                uint64_t seed, double correlation);

/// Wraps a provider so that every EstimateSubsets call (one per DP level)
/// is a span named "optimizer.estimate_subsets": the optimizer's estimation
/// time, measured from outside.
class TimedProvider : public duet::optimizer::CardinalityProvider {
 public:
  TimedProvider(duet::optimizer::CardinalityProvider& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::unique_ptr<Session> StartPlan(const duet::optimizer::StarJoinQuery& star) override;
  std::string name() const override { return inner_.name(); }

 private:
  duet::optimizer::CardinalityProvider& inner_;
  Tracer& tracer_;
};

/// Optimizer figures a workload measured on its own plan searches.
struct OptimizerFigures {
  double estimate_us_per_plan = 0.0;
  double dp_self_us_per_plan = 0.0;
  double subset_requests_per_plan = 0.0;
  double levels_per_plan = 0.0;
};

/// Async batching figures a workload measured on its own traffic.
struct BatchingFigures {
  double queries_per_micro_batch = 0.0;
  double fused_share = 0.0;
};

/// What the per-layer probes run on: the workload's own data and model.
struct LayerProbeInputs {
  const duet::data::Table* table = nullptr;
  /// The workload's model (trained or not) and the artifact written from it.
  const duet::core::DuetModel* model = nullptr;
  std::string artifact_path;
  /// Options of that model and of its training; the training-step probe
  /// trains a fresh model built with them.
  duet::core::DuetModelOptions model_options;
  duet::core::TrainOptions train_options;
  /// Labelled training queries; when null the probe labels its own.
  const duet::query::Workload* train_workload = nullptr;
  /// The workload's queries on `table` (at least one).
  const std::vector<duet::query::Query>* queries = nullptr;
  /// Set when the workload measured these on its own traffic; otherwise
  /// the probes measure them (64-query async bursts, and plan searches
  /// with exact cardinalities over fixed star tables).
  const BatchingFigures* batching = nullptr;
  const OptimizerFigures* optimizer = nullptr;
};

/// Records every per-layer metric except tensor.pack_weights_calls, which
/// each workload counts over its own serving phase. Traced runs only: several
/// figures are read back from the spans the probes record. Temporary files
/// go to the run's scratch directory.
void RunLayerProbes(Run& run, const LayerProbeInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
