// plan_search: one optimizer thread plans star-join queries back to back
// with optimizer::JoinOrderPlanner through ServingCardinalityProvider
// (default options) on an in-process zoo-mode ServingEngine whose per-table
// models are trained in set-up and stay resident. Small keyed bursts per DP
// level make the async scheduler (batching window, fusion, pinning) and the
// DP the blocking steps; kernels, the zoo's load path and the network do
// little here.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "optimizer/card_provider.h"
#include "optimizer/planner.h"
#include "probes.h"
#include "reference.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"
#include "workloads.h"

namespace perfbench {
namespace {

using duet::optimizer::CardinalityProvider;
using duet::query::PredOp;
using duet::query::Query;

constexpr int kTables = 4;
constexpr int64_t kRowsPerTable = 3000;
constexpr int32_t kKeyDomain = 40;
constexpr int kQueries = 8000;
// Tables and models are fixed, so every run serves the same four trained
// models; --seed draws the star queries. Across model seeds the mean
// P-error moves by far more than any usable regression bound (README.md).
constexpr uint64_t kDataSeed = 7919;
constexpr int kTrainEpochs = 4;
constexpr int kWarmupPlans = 500;

}  // namespace

void RunPlanSearch(Run& run) {
  const uint64_t seed = run.config().seed;
  Tracer& tracer = run.tracer();

  // ---- set-up: star tables, per-table models as resident zoo artifacts ----
  const double correlations[kTables] = {0.95, 0.8, 0.6, 0.0};
  std::vector<std::unique_ptr<duet::data::Table>> owned;
  std::vector<const duet::data::Table*> tables;
  for (int t = 0; t < kTables; ++t) {
    owned.push_back(std::make_unique<duet::data::Table>(
        MakeStarTable("star" + std::to_string(t), kRowsPerTable, kKeyDomain,
                      kDataSeed + static_cast<uint64_t>(t), correlations[t])));
    tables.push_back(owned.back().get());
  }
  duet::serve::ModelZoo zoo;  // no budget: every model stays resident
  std::vector<std::string> keys;
  std::vector<std::string> paths;
  std::vector<double> write_ms;
  double model_bytes = 0.0;
  duet::core::DuetModelOptions mopt;
  mopt.hidden_sizes = {64, 64};
  mopt.residual = true;
  duet::core::TrainOptions topt;
  topt.epochs = kTrainEpochs;
  topt.batch_size = 128;
  std::unique_ptr<duet::core::DuetModel> model0;  // table 0's model, for the probes
  for (int t = 0; t < kTables; ++t) {
    mopt.seed = kDataSeed + static_cast<uint64_t>(t);
    auto model = std::make_unique<duet::core::DuetModel>(*tables[static_cast<size_t>(t)], mopt);
    topt.seed = kDataSeed * 31 + static_cast<uint64_t>(t);
    duet::core::DuetTrainer(*model, topt).Train();
    paths.push_back(run.ScratchPath("star" + std::to_string(t) + ".duet"));
    const Clock::time_point w0 = Clock::now();
    const duet::artifact::ArtifactStatus st =
        duet::artifact::WriteArtifact(paths.back(), *model, duet::tensor::WeightBackend::kDenseF32);
    write_ms.push_back(MicrosSince(w0) / 1e3);
    if (!run.Check(st.ok, "artifact write failed: " + st.error)) return run.EndSetup();
    model_bytes += static_cast<double>(FileBytes(paths.back()));
    keys.push_back("star-" + std::to_string(t));
    zoo.Register(keys.back(), paths.back());
    if (t == 0) model0 = std::move(model);
  }

  std::mt19937_64 rng(seed);
  std::vector<std::unique_ptr<duet::optimizer::JoinOrderPlanner>> planners;
  for (int qi = 0; qi < kQueries; ++qi) {
    duet::optimizer::StarJoinQuery star;
    star.tables = tables;
    star.join_col = 0;
    for (const duet::data::Table* t : tables) {
      // Equality pairs on the correlated filter columns: the conjunction is
      // where an estimate's error changes the chosen join order.
      Query f;
      for (int c = 1; c <= 2; ++c) {
        const std::vector<double>& values = t->column(c).distinct();
        f.predicates.push_back({c, PredOp::kEq, values[rng() % values.size()]});
      }
      star.filters.push_back(f);
    }
    planners.push_back(std::make_unique<duet::optimizer::JoinOrderPlanner>(std::move(star)));
  }

  duet::serve::ServingOptions sopt;  // library defaults except the worker count
  sopt.num_workers = run.config().threads.engine_workers;
  duet::serve::ServingEngine engine(zoo, sopt);
  const duet::optimizer::JoinKeyStats key_stats(tables, /*join_col=*/0);
  duet::optimizer::ServingCardinalityProvider neural(engine, keys, key_stats);
  TimedProvider timed(neural, tracer);
  CardinalityProvider& provider =
      run.traced() ? static_cast<CardinalityProvider&>(timed) : neural;
  for (int i = 0; i < kWarmupPlans; ++i) planners[static_cast<size_t>(i)]->Plan(neural);
  run.EndSetup();

  // ---- timed: plan every query, whole rounds ----
  const uint64_t packs_before = duet::tensor::PackWeightsCalls();
  const duet::serve::ServingStats stats_before = engine.stats();
  std::vector<std::vector<int>> first_orders(kQueries);
  std::vector<double> plan_us;
  double subset_requests = 0.0, levels = 0.0;
  uint64_t plans = 0, degraded_plans = 0;
  std::vector<Completion> completions;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (int qi = 0; qi < kQueries; ++qi) {
      duet::optimizer::PlanSearchResult res;
      const Clock::time_point t0 = Clock::now();
      {
        Span span(tracer, "optimizer.plan");
        res = planners[static_cast<size_t>(qi)]->Plan(provider);
      }
      plan_us.push_back(MicrosSince(t0));
      completions.push_back({MicrosSince(start) / 1e6, 1.0});
      ++plans;
      subset_requests += static_cast<double>(res.subset_requests);
      levels += res.levels;
      if (res.degraded_estimates > 0) ++degraded_plans;
      if (rounds == 0) {
        first_orders[static_cast<size_t>(qi)] = res.plan.order;
      } else if (res.plan.order != first_orders[static_cast<size_t>(qi)]) {
        run.Check(false, "plan for query " + std::to_string(qi) + " changed between rounds");
      }
    }
    ++rounds;
  } while (MicrosSince(start) / 1e6 < run.config().seconds);
  const double elapsed_s = MicrosSince(start) / 1e6;
  const duet::serve::ServingStats stats_after = engine.stats();
  const uint64_t serving_packs = duet::tensor::PackWeightsCalls() - packs_before;
  run.Attempted(plans);
  run.Failed(degraded_plans);

  // ---- checks (untimed; the references are the benchmark's own work, not
  // the program's set-up, so they are built here) ----
  std::vector<double> perrors;
  for (int qi = 0; qi < kQueries; ++qi) {
    duet::optimizer::JoinOrderPlanner& planner = *planners[static_cast<size_t>(qi)];
    const StarJoinReference ref(tables, planner.query().filters, 0);
    const std::vector<int>& order = first_orders[static_cast<size_t>(qi)];
    const double perror = ref.PError(order);
    run.Check(perror >= 1.0, "neural P-error below 1 for query " + std::to_string(qi));
    run.Check(planner.TrueCOut(order) == ref.COut(order),
              "planner's true C_out differs from the reference for query " + std::to_string(qi));
    perrors.push_back(perror);
    duet::optimizer::ExactCardinalityProvider oracle(planner.exact());
    const std::vector<int> oracle_order = planner.Plan(oracle).plan.order;
    run.Check(ref.COut(oracle_order) == ref.OptimalCOut(),
              "oracle plan is not the brute-force optimum for query " + std::to_string(qi));
  }

  run.EndToEnd("model_bytes", model_bytes, "bytes");
  std::vector<double> plan_at_s;
  for (const Completion& c : completions) plan_at_s.push_back(c.at_s);
  run.EndToEnd("ops_per_s", FastWindowRate(completions, 0.5, elapsed_s), "1/s");
  run.EndToEnd("latency_p50_us", FastWindowP50(plan_us, plan_at_s, 1.0, elapsed_s), "us");
  run.EndToEnd("estimate_error", Mean(perrors), "ratio");
  run.Note("plan_search: ops_per_s = plans/s, latency_p50_us = plan p50 (faster quarter of "
           "1 s windows; p50 of all plans " + std::to_string(Percentile(plan_us, 50.0)) +
           " us), estimate_error = mean neural P-error; plan p99 " + std::to_string(Percentile(plan_us, 99.0)) +
           " us, mean artifact write " + std::to_string(Mean(write_ms)) + " ms");
  run.Note("plan_search: " + std::to_string(plans) + " plans in " + std::to_string(rounds) +
           " rounds of " + std::to_string(kQueries) + " star queries over " +
           std::to_string(kTables) + " tables");
  if (!run.traced()) return;

  // ---- per-layer metrics (traced run only) ----
  run.Layer("tensor.pack_weights_calls", static_cast<double>(serving_packs), "count");
  const double n = static_cast<double>(plans);
  double estimate_total = 0.0;
  for (double us : tracer.DurationsUs("optimizer.estimate_subsets")) estimate_total += us;
  OptimizerFigures optimizer;
  optimizer.estimate_us_per_plan = estimate_total / n;
  optimizer.dp_self_us_per_plan = Mean(tracer.SelfTimesUs("optimizer.plan"));
  optimizer.subset_requests_per_plan = subset_requests / n;
  optimizer.levels_per_plan = levels / n;
  const double async_queries = static_cast<double>(stats_after.queries - stats_before.queries);
  BatchingFigures batching;
  batching.queries_per_micro_batch =
      async_queries /
      static_cast<double>(stats_after.micro_batches - stats_before.micro_batches);
  batching.fused_share =
      static_cast<double>(stats_after.fused_requests - stats_before.fused_requests) /
      async_queries;
  std::vector<Query> table0_filters;
  for (const auto& planner : planners) table0_filters.push_back(planner->query().filters[0]);
  mopt.seed = kDataSeed;
  LayerProbeInputs probe;
  probe.table = tables[0];
  probe.model = model0.get();
  probe.artifact_path = paths[0];
  probe.model_options = mopt;
  probe.train_options = topt;
  probe.queries = &table0_filters;
  probe.batching = &batching;
  probe.optimizer = &optimizer;
  RunLayerProbes(run, probe);
}

}  // namespace perfbench
