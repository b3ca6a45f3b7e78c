#include "probes.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "artifact/artifact.h"
#include "common/rng.h"
#include "core/encoding.h"
#include "core/sampler.h"
#include "data/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "optimizer/planner.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

using duet::query::Query;

// The serve and net probes send batch-1 requests at this rate from one
// thread, timed from each request's due time, for kPacedRequests requests.
constexpr double kPacedRate = 1000.0;
constexpr int kPacedRequests = 1000;
constexpr int kTrainingSteps = 6;

class TimedSession : public duet::optimizer::CardinalityProvider::Session {
 public:
  TimedSession(std::unique_ptr<Session> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::vector<duet::optimizer::SubsetEstimate> EstimateSubsets(
      const std::vector<uint32_t>& subsets) override {
    Span span(tracer_, "optimizer.estimate_subsets");
    return inner_->EstimateSubsets(subsets);
  }

 private:
  std::unique_ptr<Session> inner_;
  Tracer& tracer_;
};

/// `n` queries of the workload's pool, cycling through it.
std::vector<Query> Cycle(const std::vector<Query>& pool, size_t n) {
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) out.push_back(pool[i % pool.size()]);
  return out;
}

/// The step DuetTrainer::TrainEpoch runs with the hybrid loss, replayed
/// outside the trainer (which is one opaque call) with a span around each
/// part: sample, data-loss forward, query-loss forward (SelectivityBatch ->
/// rows-scaled estimate clamped at 1 -> per-element q-error against the
/// labels -> log2(q + 1) when map_query_loss is on), the one Backward over
/// L_data + lambda * L_query, and the Adam step.
void ProbeTraining(Run& run, const LayerProbeInputs& in) {
  namespace t = duet::tensor;
  Tracer& tracer = run.tracer();
  const duet::data::Table& table = *in.table;
  const duet::core::TrainOptions& opts = in.train_options;
  duet::query::Workload labelled;
  const duet::query::Workload* train_workload = in.train_workload;
  if (train_workload == nullptr) {
    duet::query::WorkloadSpec spec;
    spec.num_queries = 256;
    spec.seed = run.config().seed * 1000003 + 23;
    labelled = duet::query::WorkloadGenerator(table, spec).Generate();
    train_workload = &labelled;
  }
  duet::core::DuetModelOptions mopt = in.model_options;
  mopt.seed = run.config().seed + 17;
  duet::core::DuetModel model(table, mopt);
  duet::core::SamplerOptions sopt;
  sopt.expand = opts.expand;
  sopt.wildcard_prob = opts.wildcard_prob;
  sopt.parallel = opts.parallel_sampler;
  duet::core::VirtualTupleSampler sampler(table, sopt);
  t::Adam adam(model.parameters(), opts.learning_rate);
  const int64_t bs = std::min<int64_t>(opts.batch_size, table.num_rows());
  const size_t take = std::min<size_t>(static_cast<size_t>(bs), train_workload->size());
  const float rows = static_cast<float>(table.num_rows());
  duet::Rng rng(run.config().seed + 19);
  const std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(table.num_rows()));
  for (int step = 0; step < kTrainingSteps; ++step) {
    std::vector<int64_t> anchors(static_cast<size_t>(bs));
    for (int64_t i = 0; i < bs; ++i) {
      anchors[static_cast<size_t>(i)] =
          perm[static_cast<size_t>((step * bs + i) % table.num_rows())];
    }
    std::vector<Query> queries;
    std::vector<float> actual;
    for (size_t i = 0; i < take; ++i) {
      const duet::query::LabeledQuery& lq =
          (*train_workload)[(static_cast<size_t>(step) * take + i) % train_workload->size()];
      queries.push_back(lq.query);
      actual.push_back(std::max<float>(1.0f, static_cast<float>(lq.cardinality)));
    }
    Span step_span(tracer, "core.train_step");
    duet::core::VirtualBatch vb;
    {
      Span s(tracer, "core.sample");
      vb = sampler.Sample(anchors, rng());
    }
    adam.ZeroGrad();
    t::Tensor data_loss;
    {
      Span s(tracer, "core.data_loss");
      data_loss = model.DataLoss(vb);
    }
    t::Tensor loss;
    {
      Span s(tracer, "core.query_loss");
      const t::Tensor sel = model.SelectivityBatch(queries);
      const t::Tensor est = t::ClampMin(t::MulScalar(sel, rows), 1.0f);
      const t::Tensor act = t::Tensor::FromVector({static_cast<int64_t>(take)}, actual);
      std::vector<float> cond(take);
      for (size_t i = 0; i < take; ++i) cond[i] = est.data()[i] > actual[i] ? 1.0f : 0.0f;
      const t::Tensor qerr = t::Select(cond, t::Div(est, act), t::Div(act, est));
      const t::Tensor lquery =
          opts.map_query_loss
              ? t::MeanAll(t::MulScalar(t::Log(t::AddScalar(qerr, 1.0f)), 1.4426950409f))
              : t::MeanAll(qerr);
      loss = t::Add(data_loss, t::MulScalar(lquery, opts.lambda));
    }
    {
      Span s(tracer, "core.backward");
      loss.Backward();
    }
    {
      Span s(tracer, "tensor.adam_step");
      adam.Step();
    }
  }
  run.Layer("core.sample_ms_per_step", Median(tracer.DurationsUs("core.sample")) / 1e3, "ms");
  run.Layer("core.data_loss_ms_per_step", Median(tracer.DurationsUs("core.data_loss")) / 1e3,
            "ms");
  run.Layer("core.query_loss_ms_per_step", Median(tracer.DurationsUs("core.query_loss")) / 1e3,
            "ms");
  run.Layer("core.backward_ms_per_step", Median(tracer.DurationsUs("core.backward")) / 1e3, "ms");
  run.Layer("tensor.adam_step_ms", Median(tracer.DurationsUs("tensor.adam_step")) / 1e3, "ms");
}

/// The paper's Fig. 6/7 split of a direct batch-1 estimate, read from
/// DuetModel::phase_times, and the batch-64 cost per query.
void ProbeEstimation(Run& run, const LayerProbeInputs& in) {
  const duet::core::DuetModel& model = *in.model;
  const std::vector<Query> queries = Cycle(*in.queries, 2048);
  model.EstimateSelectivity(queries.front());  // the first forward compiles the plan
  model.phase_times().Clear();
  {
    Span span(run.tracer(), "core.estimate_b1");
    for (const Query& q : queries) model.EstimateSelectivity(q);
  }
  const duet::core::PhaseTimes phases = model.phase_times();
  const double calls = static_cast<double>(queries.size());
  run.Layer("core.encode_us_b1", phases.encode_ms * 1e3 / calls, "us");
  run.Layer("core.forward_us_b1", phases.forward_ms * 1e3 / calls, "us");
  run.Layer("core.post_us_b1", phases.post_ms * 1e3 / calls, "us");
  std::vector<double> b64_us_per_query;
  for (size_t begin = 0; begin + 64 <= queries.size(); begin += 64) {
    const std::vector<Query> chunk(queries.begin() + static_cast<long>(begin),
                                   queries.begin() + static_cast<long>(begin + 64));
    Span span(run.tracer(), "core.estimate_b64");
    const Clock::time_point t0 = Clock::now();
    model.EstimateSelectivityBatch(chunk);
    b64_us_per_query.push_back(MicrosSince(t0) / 64.0);
  }
  run.Layer("core.estimate_b64_us_per_query", Median(b64_us_per_query), "us");
}

/// The compiled plan stored in the artifact, executed
/// (InferencePlan::ExecuteInto) on queries encoded the way the artifact's
/// own estimator encodes them. The GB/s figure is the plan's weight bytes
/// divided by the batch-1 execution time: every batch-1 execution streams
/// each packed weight once.
void ProbePlan(Run& run, const LayerProbeInputs& in) {
  std::shared_ptr<const duet::artifact::ArtifactModel> model;
  const duet::artifact::ArtifactStatus st =
      duet::artifact::LoadArtifact(in.artifact_path, duet::artifact::ArtifactLoadOptions{}, &model);
  if (!run.Check(st.ok, "artifact load for the plan probe failed: " + st.error)) return;
  const duet::nn::InferencePlan& plan = model->plan();
  const duet::core::DuetInputEncoder encoder(model->table(), model->encoding());
  const int64_t width = encoder.total_width();
  if (!run.Check(width == plan.input_dim(), "encoder width differs from the plan input")) return;
  constexpr int64_t kBatch = 64;
  const std::vector<Query>& queries = *in.queries;
  std::vector<float> input(static_cast<size_t>(kBatch * width), 0.0f);
  for (int64_t r = 0; r < kBatch; ++r) {
    encoder.EncodeQueryRow(model->table(), queries[static_cast<size_t>(r) % queries.size()],
                           input.data() + r * width);
  }
  std::vector<float> output(static_cast<size_t>(kBatch * plan.output_dim()));
  duet::tensor::NoGradScope no_grad;
  int64_t row = 0;
  const double b1_us = MedianCallUs(run, "nn.plan_exec_b1", 200, 15, [&] {
    plan.ExecuteInto(input.data() + (row++ % kBatch) * width, 1, output.data());
  });
  const double b64_us = MedianCallUs(run, "nn.plan_exec_b64", 10, 15, [&] {
    plan.ExecuteInto(input.data(), kBatch, output.data());
  });
  const double bytes = static_cast<double>(plan.bytes());
  run.Layer("nn.plan_exec_b1_us", b1_us, "us");
  run.Layer("nn.plan_exec_b64_us", b64_us, "us");
  run.Layer("nn.plan_bytes", bytes, "bytes");
  run.Layer("nn.plan_gbps_b1", bytes / (b1_us * 1e3), "GB/s");
}

/// WriteArtifact of the workload's model and direct LoadArtifact of its
/// artifact (load includes section checksum validation).
void ProbeArtifact(Run& run, const LayerProbeInputs& in) {
  const std::string path = run.ScratchPath("probe-write.duet");
  std::vector<double> write_ms;
  for (int i = 0; i < 5; ++i) {
    Span span(run.tracer(), "artifact.write");
    const Clock::time_point t0 = Clock::now();
    const duet::artifact::ArtifactStatus st =
        duet::artifact::WriteArtifact(path, *in.model, duet::tensor::WeightBackend::kDenseF32);
    write_ms.push_back(MicrosSince(t0) / 1e3);
    if (!run.Check(st.ok, "probe artifact write failed: " + st.error)) break;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  run.Layer("artifact.write_ms", Median(write_ms), "ms");
  std::vector<double> load_us;
  for (int i = 0; i < 60; ++i) {
    std::shared_ptr<const duet::artifact::ArtifactModel> model;
    Span span(run.tracer(), "artifact.load");
    const Clock::time_point t0 = Clock::now();
    const duet::artifact::ArtifactStatus st =
        duet::artifact::LoadArtifact(in.artifact_path, duet::artifact::ArtifactLoadOptions{}, &model);
    load_us.push_back(MicrosSince(t0));
    if (!run.Check(st.ok, "probe artifact load failed: " + st.error)) break;
  }
  run.Layer("artifact.load_p50_us", Percentile(load_us, 50.0), "us");
  run.Layer("artifact.load_p99_us", Percentile(load_us, 99.0), "us");
}

/// Sends kPacedRequests batch-1 requests at kPacedRate from one thread via
/// `send(i)`; returns each request's latency from its due time.
template <typename Fn>
std::vector<double> Paced(Tracer& tracer, const char* span_name, Fn send) {
  std::vector<double> latency;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (int i = 0; i < kPacedRequests; ++i) {
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(static_cast<int64_t>(static_cast<double>(i) * 1e9 / kPacedRate));
    std::this_thread::sleep_until(due);
    Span span(tracer, span_name);
    send(i);
    latency.push_back(MicrosSince(due));
  }
  return latency;
}

/// The zoo, the engine (sync batches, async Submit) and the DuetRpc
/// front end over loopback, on a zoo-mode engine serving the workload's
/// artifact under one key, plus the net/wire.h codec at batch 1 and 64.
void ProbeServeAndNet(Run& run, const LayerProbeInputs& in) {
  Tracer& tracer = run.tracer();
  const std::string key = "probe";
  const std::vector<Query>& pool = *in.queries;
  std::shared_ptr<const duet::artifact::ArtifactModel> direct;
  const duet::artifact::ArtifactStatus lt =
      duet::artifact::LoadArtifact(in.artifact_path, duet::artifact::ArtifactLoadOptions{}, &direct);
  if (!run.Check(lt.ok, "probe artifact load failed: " + lt.error)) return;
  const std::vector<double> expected = direct->EstimateSelectivityBatch(pool);
  uint64_t wrong = 0;

  duet::serve::ModelZoo zoo;  // no budget
  zoo.Register(key, in.artifact_path);
  std::vector<double> miss_us;
  for (int i = 0; i < 30; ++i) {
    zoo.Evict(key);
    duet::serve::ZooPin pin;
    Span span(tracer, "serve.zoo_acquire_miss");
    const Clock::time_point t0 = Clock::now();
    zoo.TryAcquire(key, &pin);
    miss_us.push_back(MicrosSince(t0));
  }
  run.Layer("serve.zoo_acquire_miss_us", Median(miss_us), "us");
  duet::serve::ZooPin held;
  zoo.TryAcquire(key, &held);  // keeps the model resident for the hit probe
  run.Layer("serve.zoo_acquire_hit_us", MedianCallUs(run, "serve.zoo_acquire_hit", 2000, 15, [&] {
              duet::serve::ZooPin pin;
              zoo.TryAcquire(key, &pin);
            }),
            "us");
  held.reset();

  duet::serve::ServingOptions sopt;  // library defaults except the worker count
  sopt.num_workers = run.config().threads.engine_workers;
  duet::serve::ServingEngine engine(zoo, sopt);
  const std::vector<Query> batch16 = Cycle(pool, 16);
  const std::vector<Query> batch64 = Cycle(pool, 64);
  run.Layer("serve.keyed_batch_us",
            MedianCallUs(run, "serve.keyed_batch", 200, 15, [&] { engine.EstimateBatch(key, batch16); }),
            "us");
  run.Layer("serve.estimate_batch_b64_us",
            MedianCallUs(run, "serve.estimate_batch_b64", 20, 15,
                         [&] { engine.EstimateBatch(key, batch64); }),
            "us");

  // In-process Submit -> Future ready, paced, timed from due times.
  const std::vector<double> submit_us = Paced(tracer, "serve.submit", [&](int i) {
    const duet::serve::Estimate e = engine.Submit(key, pool[static_cast<size_t>(i) % pool.size()]).Result();
    if (e.degraded() || !SameBits(e.selectivity, expected[static_cast<size_t>(i) % pool.size()])) ++wrong;
  });
  const double submit_p50 = Percentile(submit_us, 50.0);
  run.Layer("serve.submit_p50_us", submit_p50, "us");
  run.Layer("serve.submit_p99_us", Percentile(submit_us, 99.0), "us");

  if (in.batching == nullptr) {
    // 64-query async bursts: how the scheduler groups what arrives at once.
    const duet::serve::ServingStats before = engine.stats();
    std::vector<duet::serve::ServingEngine::Future> futures;
    for (int burst = 0; burst < 50; ++burst) {
      Span span(tracer, "serve.submit_burst64");
      futures.clear();
      for (size_t j = 0; j < 64; ++j) futures.push_back(engine.Submit(key, pool[j % pool.size()]));
      for (size_t j = 0; j < futures.size(); ++j) {
        const duet::serve::Estimate e = futures[j].Result();
        if (e.degraded() || !SameBits(e.selectivity, expected[j % pool.size()])) ++wrong;
      }
    }
    const duet::serve::ServingStats after = engine.stats();
    const double async_queries = static_cast<double>(after.queries - before.queries);
    run.Layer("serve.queries_per_micro_batch",
              async_queries / static_cast<double>(after.micro_batches - before.micro_batches),
              "queries");
    run.Layer("serve.fused_share",
              static_cast<double>(after.fused_requests - before.fused_requests) / async_queries,
              "ratio");
  } else {
    run.Layer("serve.queries_per_micro_batch", in.batching->queries_per_micro_batch, "queries");
    run.Layer("serve.fused_share", in.batching->fused_share, "ratio");
  }

  // DuetRpc codec (net/wire.h) at batch 1 and batch 64.
  double codec_b1_us = 0.0;
  for (int batch : {1, 64}) {
    duet::net::EstimateRequest req;
    req.model_key = key;
    req.queries = Cycle(pool, static_cast<size_t>(batch));
    duet::net::EstimateResponse resp;
    resp.estimates.resize(static_cast<size_t>(batch));
    for (int j = 0; j < batch; ++j) {
      resp.estimates[static_cast<size_t>(j)].selectivity = expected[static_cast<size_t>(j) % pool.size()];
    }
    std::string req_bytes, resp_bytes, scratch;
    duet::net::EncodeEstimateRequest(req, &req_bytes);
    duet::net::EncodeEstimateResponse(resp, &resp_bytes);
    duet::net::EstimateRequest req_out;
    duet::net::EstimateResponse resp_out;
    const std::string suffix = batch == 1 ? "_us" : "_b64_us";
    const double enc_req = MedianCallUs(run, "net.encode_req", 2000, 15, [&] {
      scratch.clear();
      duet::net::EncodeEstimateRequest(req, &scratch);
    });
    const double dec_req = MedianCallUs(run, "net.decode_req", 2000, 15, [&] {
      duet::net::DecodeEstimateRequest(req_bytes.data(), req_bytes.size(),
                                       static_cast<uint32_t>(batch), &req_out);
    });
    const double enc_resp = MedianCallUs(run, "net.encode_resp", 2000, 15, [&] {
      scratch.clear();
      duet::net::EncodeEstimateResponse(resp, &scratch);
    });
    const double dec_resp = MedianCallUs(run, "net.decode_resp", 2000, 15, [&] {
      duet::net::DecodeEstimateResponse(resp_bytes.data(), resp_bytes.size(),
                                        static_cast<uint32_t>(batch), &resp_out);
    });
    run.Layer("net.encode_req" + suffix, enc_req, "us");
    run.Layer("net.decode_req" + suffix, dec_req, "us");
    run.Layer("net.encode_resp" + suffix, enc_resp, "us");
    run.Layer("net.decode_resp" + suffix, dec_resp, "us");
    if (batch == 1) codec_b1_us = enc_req + dec_req + enc_resp + dec_resp;
  }

  // The same paced batch-1 traffic over one loopback connection, then
  // batch-64 frames for the bytes each query puts on the wire.
  duet::net::NetServerOptions nopt;  // library defaults except the loop count
  nopt.num_loops = run.config().threads.server_loops;
  duet::net::NetServer server(engine, nopt);
  const duet::net::WireStatus started = server.Start();
  if (!run.Check(started.ok, "probe server start failed: " + started.error)) return;
  duet::net::RpcClient client;
  const duet::net::WireStatus connected = client.Connect("127.0.0.1", server.port());
  if (run.Check(connected.ok, "probe connect failed: " + connected.error)) {
    uint64_t errors = 0;
    auto send = [&](const std::vector<Query>& batch, size_t first) {
      std::vector<duet::serve::Estimate> out;
      const duet::net::WireStatus st = client.EstimateBatch(key, batch, 0, &out);
      if (!st.ok || out.size() != batch.size()) {
        ++errors;
        return;
      }
      for (size_t j = 0; j < out.size(); ++j) {
        if (out[j].degraded() || !SameBits(out[j].selectivity, expected[(first + j) % pool.size()])) {
          ++wrong;
        }
      }
    };
    for (int i = 0; i < 100; ++i) send({pool[static_cast<size_t>(i) % pool.size()]}, static_cast<size_t>(i));
    const std::vector<double> wire_us = Paced(tracer, "net.request_b1", [&](int i) {
      send({pool[static_cast<size_t>(i) % pool.size()]}, static_cast<size_t>(i));
    });
    const duet::net::NetStats before = server.stats();
    for (int i = 0; i < 50; ++i) {
      Span span(tracer, "net.request_b64");
      send(batch64, 0);
    }
    const duet::net::NetStats after = server.stats();
    run.Check(errors == 0, std::to_string(errors) + " probe wire requests failed");
    const double wire_p50 = Percentile(wire_us, 50.0);
    const double queries = static_cast<double>(after.queries - before.queries);
    run.Layer("net.wire_b1_p50_us", wire_p50, "us");
    run.Layer("net.overhead_b1_us", wire_p50 - submit_p50, "us");
    run.Layer("net.b1_accounted_share", (codec_b1_us + submit_p50) / wire_p50, "ratio");
    run.Layer("net.bytes_in_per_query", static_cast<double>(after.bytes_in - before.bytes_in) / queries,
              "bytes");
    run.Layer("net.bytes_out_per_query",
              static_cast<double>(after.bytes_out - before.bytes_out) / queries, "bytes");
    client.Close();
  }
  server.Stop();
  run.Check(wrong == 0, std::to_string(wrong) + " probe answers differ from the direct estimate");
}

/// Join-order search with exact cardinalities over fixed star tables: the
/// DP's own cost with a provider that does no serving.
OptimizerFigures ProbeOptimizer(Run& run) {
  constexpr int kTables = 4;
  constexpr int32_t kKeyDomain = 40;
  std::vector<std::unique_ptr<duet::data::Table>> owned;
  std::vector<const duet::data::Table*> tables;
  const double correlations[kTables] = {0.95, 0.8, 0.6, 0.0};
  for (int t = 0; t < kTables; ++t) {
    owned.push_back(std::make_unique<duet::data::Table>(MakeStarTable(
        "probe_star" + std::to_string(t), 1000, kKeyDomain, 977 + static_cast<uint64_t>(t),
        correlations[t])));
    tables.push_back(owned.back().get());
  }
  std::mt19937_64 rng(run.config().seed * 1000003 + 29);
  double subset_requests = 0.0, levels = 0.0;
  constexpr int kPlans = 300;
  for (int qi = 0; qi < kPlans; ++qi) {
    duet::optimizer::StarJoinQuery star;
    star.tables = tables;
    star.join_col = 0;
    for (const duet::data::Table* t : tables) {
      Query f;
      for (int c = 1; c <= 2; ++c) {
        const std::vector<double>& values = t->column(c).distinct();
        f.predicates.push_back({c, duet::query::PredOp::kEq, values[rng() % values.size()]});
      }
      star.filters.push_back(f);
    }
    duet::optimizer::JoinOrderPlanner planner(std::move(star));
    duet::optimizer::ExactCardinalityProvider exact(planner.exact());
    TimedProvider timed(exact, run.tracer());
    Span span(run.tracer(), "optimizer.plan_exact");
    const duet::optimizer::PlanSearchResult res = planner.Plan(timed);
    subset_requests += static_cast<double>(res.subset_requests);
    levels += res.levels;
  }
  double estimate_total = 0.0;
  for (double us : run.tracer().DurationsUs("optimizer.estimate_subsets")) estimate_total += us;
  OptimizerFigures out;
  out.estimate_us_per_plan = estimate_total / kPlans;
  out.dp_self_us_per_plan = Mean(run.tracer().SelfTimesUs("optimizer.plan_exact"));
  out.subset_requests_per_plan = subset_requests / kPlans;
  out.levels_per_plan = levels / kPlans;
  return out;
}

}  // namespace

double MedianCallUs(Run& run, const char* span_name, int calls, int blocks,
                    const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < blocks; ++b) {
    Span span(run.tracer(), span_name);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(MicrosSince(start) / calls);
  }
  return Median(per_call);
}

duet::data::Table MakeStarTable(const std::string& name, int64_t rows, int32_t key_domain,
                                uint64_t seed, double correlation) {
  duet::data::SyntheticSpec spec;
  spec.name = name;
  spec.rows = rows;
  spec.seed = seed;
  spec.num_latent = 1;
  spec.latent_cardinality = key_domain;
  spec.columns = {{key_domain, 0.4, 0.3, 0}, {12, 0.6, correlation, 0}, {12, 0.6, correlation, 0}};
  const duet::data::Table generated = duet::data::GenerateSynthetic(spec);
  std::vector<double> domain(static_cast<size_t>(key_domain));
  for (int32_t v = 0; v < key_domain; ++v) domain[static_cast<size_t>(v)] = v;
  std::vector<duet::data::Column> columns;
  for (int c = 0; c < generated.num_columns(); ++c) {
    const duet::data::Column& src = generated.column(c);
    columns.push_back(duet::data::Column::FromCodes(src.name(), src.codes(),
                                                    c == 0 ? domain : src.distinct()));
  }
  return duet::data::Table(name, std::move(columns));
}

std::unique_ptr<duet::optimizer::CardinalityProvider::Session> TimedProvider::StartPlan(
    const duet::optimizer::StarJoinQuery& star) {
  return std::make_unique<TimedSession>(inner_.StartPlan(star), tracer_);
}

void RunLayerProbes(Run& run, const LayerProbeInputs& in) {
  ProbeTraining(run, in);
  ProbeEstimation(run, in);
  ProbePlan(run, in);
  ProbeArtifact(run, in);
  ProbeServeAndNet(run, in);
  const OptimizerFigures opt = in.optimizer != nullptr ? *in.optimizer : ProbeOptimizer(run);
  run.Layer("optimizer.estimate_us_per_plan", opt.estimate_us_per_plan, "us");
  run.Layer("optimizer.dp_self_us_per_plan", opt.dp_self_us_per_plan, "us");
  run.Layer("optimizer.subset_requests_per_plan", opt.subset_requests_per_plan, "count");
  run.Layer("optimizer.levels_per_plan", opt.levels_per_plan, "count");
}

}  // namespace perfbench
