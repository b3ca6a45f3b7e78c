// wire_serving: a net::NetServer over a zoo-mode engine with its models
// resident, driven over loopback. Phase A is open loop: batch-1 frames at a
// fixed absolute rate, timed from each request's due time (per-request
// overhead and batching delay). Phase B is closed loop: batch-64 frames over
// the same connections (kernel throughput and codec bytes).
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "core/duet_model.h"
#include "data/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "probes.h"
#include "reference.h"
#include "query/workload.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"
#include "workloads.h"

namespace perfbench {
namespace {

using duet::query::Query;

constexpr int64_t kRows = 4000;
constexpr int kModels = 2;
constexpr int kPool = 4096;
// Phase A's total request rate. With two connections each sends every
// 2 ms against a batch-1 latency near 0.55 ms, so a host slowdown of a few
// times still drains before the next request is due and nothing queues or
// sheds.
constexpr double kRateA = 1000.0;
constexpr double kPhaseAShare = 0.5;  // of --seconds; phase B gets the rest
constexpr int kBatchB = 64;
constexpr int kWarmupFrames = 200;  // per connection, each a batch-1 and a batch-64 frame

/// What one client thread saw.
struct ClientLog {
  std::vector<double> lateness_us;  ///< phase A, send time minus due time
  std::vector<Completion> done;     ///< phase B, answered queries over time
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t degraded = 0;
  uint64_t wrong = 0;    ///< answers that differ bitwise from the direct estimate
  uint64_t errors = 0;   ///< transport / protocol failures
  std::string first_error;
};

class Fixture {
 public:
  Fixture(const std::vector<Query>& pool, const std::vector<std::vector<double>>& expected,
          const std::vector<std::string>& keys)
      : pool_(pool), expected_(expected), keys_(keys) {}

  /// Sends `queries` (pool indices) for model `m` as one frame and checks
  /// every answer.
  void Send(duet::net::RpcClient& client, int m, const std::vector<int>& idx, ClientLog& log) {
    std::vector<Query> batch;
    batch.reserve(idx.size());
    for (int i : idx) batch.push_back(pool_[static_cast<size_t>(i)]);
    std::vector<duet::serve::Estimate> out;
    log.sent += idx.size();
    const duet::net::WireStatus st =
        client.EstimateBatch(keys_[static_cast<size_t>(m)], batch, 0, &out);
    if (!st.ok || out.size() != idx.size()) {
      ++log.errors;
      if (log.first_error.empty()) log.first_error = st.ok ? "short response" : st.error;
      return;
    }
    log.answered += out.size();
    for (size_t j = 0; j < out.size(); ++j) {
      if (out[j].degraded()) ++log.degraded;
      if (!SameBits(out[j].selectivity,
                    expected_[static_cast<size_t>(m)][static_cast<size_t>(idx[j])])) {
        ++log.wrong;
      }
    }
  }

 private:
  const std::vector<Query>& pool_;
  const std::vector<std::vector<double>>& expected_;
  const std::vector<std::string>& keys_;
};

/// Runs `body(thread_index)` on `n` threads and joins them all.
template <typename Fn>
void OnThreads(int n, Fn body) {
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
}

}  // namespace

void RunWireServing(Run& run) {
  const uint64_t seed = run.config().seed;
  const int clients = run.config().threads.client_threads;
  Tracer& tracer = run.tracer();

  // ---- set-up: models as resident zoo artifacts, expected answers ----
  const duet::data::Table table = duet::data::CensusLike(kRows, seed);
  duet::serve::ModelZoo zoo;  // no budget: every model stays resident
  std::vector<std::string> keys, paths;
  std::vector<double> write_ms;
  double model_bytes = 0.0;
  duet::core::DuetModelOptions mopt;  // library defaults, distinct seeds
  std::unique_ptr<duet::core::DuetModel> model0;  // model 0, for the probes
  for (int m = 0; m < kModels; ++m) {
    mopt.seed = seed * 101 + static_cast<uint64_t>(m);
    auto model = std::make_unique<duet::core::DuetModel>(table, mopt);
    paths.push_back(run.ScratchPath("wire" + std::to_string(m) + ".duet"));
    const Clock::time_point w0 = Clock::now();
    const duet::artifact::ArtifactStatus st =
        duet::artifact::WriteArtifact(paths.back(), *model, duet::tensor::WeightBackend::kDenseF32);
    write_ms.push_back(MicrosSince(w0) / 1e3);
    if (!run.Check(st.ok, "artifact write failed: " + st.error)) return run.EndSetup();
    model_bytes += static_cast<double>(FileBytes(paths.back()));
    keys.push_back("wire-" + std::to_string(m));
    zoo.Register(keys.back(), paths.back());
    if (m == 0) model0 = std::move(model);
  }
  duet::query::WorkloadSpec spec;
  spec.seed = seed * 1000003 + 5;
  const duet::query::WorkloadGenerator gen(table, spec);
  duet::Rng qrng(seed * 1000003 + 6);
  std::vector<Query> pool;
  for (int i = 0; i < kPool; ++i) pool.push_back(gen.GenerateQuery(qrng));
  std::vector<std::vector<double>> expected;
  for (const std::string& path : paths) {
    std::shared_ptr<const duet::artifact::ArtifactModel> direct;
    const duet::artifact::ArtifactStatus st =
        duet::artifact::LoadArtifact(path, duet::artifact::ArtifactLoadOptions{}, &direct);
    if (!run.Check(st.ok, "direct artifact load failed: " + st.error)) return run.EndSetup();
    expected.push_back(direct->EstimateSelectivityBatch(pool));
  }
  Fixture fixture(pool, expected, keys);

  duet::serve::ServingOptions sopt;  // library defaults except the worker count
  sopt.num_workers = run.config().threads.engine_workers;
  duet::serve::ServingEngine engine(zoo, sopt);
  duet::net::NetServerOptions nopt;  // library defaults except the loop count
  nopt.num_loops = run.config().threads.server_loops;
  duet::net::NetServer server(engine, nopt);
  const duet::net::WireStatus started = server.Start();
  if (!run.Check(started.ok, "server start failed: " + started.error)) return run.EndSetup();

  std::vector<duet::net::RpcClient> conns(static_cast<size_t>(clients));
  for (auto& c : conns) {
    const duet::net::WireStatus st = c.Connect("127.0.0.1", server.port());
    if (!run.Check(st.ok, "connect failed: " + st.error)) return run.EndSetup();
  }
  std::vector<ClientLog> warm(static_cast<size_t>(clients));
  OnThreads(clients, [&](int t) {
    for (int i = 0; i < kWarmupFrames; ++i) {
      fixture.Send(conns[static_cast<size_t>(t)], i % kModels, {i % kPool}, warm[static_cast<size_t>(t)]);
      std::vector<int> idx;
      for (int j = 0; j < kBatchB; ++j) idx.push_back((i * kBatchB + j) % kPool);
      fixture.Send(conns[static_cast<size_t>(t)], i % kModels, idx, warm[static_cast<size_t>(t)]);
    }
  });
  for (const ClientLog& w : warm) {
    run.Check(w.errors == 0 && w.wrong == 0, "warm-up traffic failed: " + w.first_error);
  }
  run.EndSetup();

  // ---- timed: phase A, open loop at kRateA from absolute due times ----
  const uint64_t packs_before = duet::tensor::PackWeightsCalls();
  const duet::net::NetStats net_a0 = server.stats();
  const duet::serve::ServingStats eng_a0 = engine.stats();
  const int64_t requests_a =
      static_cast<int64_t>(kRateA * run.config().seconds * kPhaseAShare);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<ClientLog> logs_a(static_cast<size_t>(clients));
  // Request i's latency from its due time; each thread writes its own slots.
  std::vector<double> latency(static_cast<size_t>(requests_a));
  OnThreads(clients, [&](int t) {
    ClientLog& log = logs_a[static_cast<size_t>(t)];
    for (int64_t i = t; i < requests_a; i += clients) {
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(static_cast<int64_t>(static_cast<double>(i) * 1e9 / kRateA));
      std::this_thread::sleep_until(due);
      log.lateness_us.push_back(MicrosSince(due));
      Span span(tracer, "wire.request_b1");
      fixture.Send(conns[static_cast<size_t>(t)], static_cast<int>(i % kModels),
                   {static_cast<int>(i % kPool)}, log);
      latency[static_cast<size_t>(i)] = MicrosSince(due);
    }
  });
  const duet::serve::ServingStats eng_a1 = engine.stats();

  // ---- timed: phase B, closed loop, batch-64 frames ----
  const duet::net::NetStats net_b0 = server.stats();
  const double phase_b_s = run.config().seconds * (1.0 - kPhaseAShare);
  std::vector<ClientLog> logs_b(static_cast<size_t>(clients));
  const Clock::time_point b_start = Clock::now();
  OnThreads(clients, [&](int t) {
    ClientLog& log = logs_b[static_cast<size_t>(t)];
    std::vector<int> idx(kBatchB);
    for (int64_t frame = 0; MicrosSince(b_start) / 1e6 < phase_b_s; ++frame) {
      for (int j = 0; j < kBatchB; ++j) {
        idx[static_cast<size_t>(j)] = static_cast<int>((frame * kBatchB + j + t * 7) % kPool);
      }
      Span span(tracer, "wire.request_b64");
      const uint64_t answered_before = log.answered;
      fixture.Send(conns[static_cast<size_t>(t)], static_cast<int>((frame + t) % kModels), idx,
                   log);
      log.done.push_back({MicrosSince(b_start) / 1e6, static_cast<double>(log.answered - answered_before)});
    }
  });
  const double b_elapsed_s = MicrosSince(b_start) / 1e6;
  const duet::net::NetStats net_b1 = server.stats();
  const uint64_t serving_packs = duet::tensor::PackWeightsCalls() - packs_before;

  // ---- checks ----
  std::vector<double> lateness;
  std::vector<Completion> done_b;
  uint64_t sent = 0, answered = 0, answered_b = 0, degraded = 0, wrong = 0, errors = 0;
  for (const auto* logs : {&logs_a, &logs_b}) {
    for (const ClientLog& log : *logs) {
      sent += log.sent;
      answered += log.answered;
      degraded += log.degraded;
      wrong += log.wrong;
      errors += log.errors;
      if (!log.first_error.empty()) run.Check(false, "wire error: " + log.first_error);
      if (logs == &logs_a) {
        lateness.insert(lateness.end(), log.lateness_us.begin(), log.lateness_us.end());
      } else {
        answered_b += log.answered;
        done_b.insert(done_b.end(), log.done.begin(), log.done.end());
      }
    }
  }
  run.Check(wrong == 0, std::to_string(wrong) +
                            " wire answers differ bitwise from the direct artifact estimate");
  run.Check(answered == sent, "queries answered (" + std::to_string(answered) +
                                  ") differ from queries sent (" + std::to_string(sent) + ")");
  run.Check(net_b1.queries - net_a0.queries == sent, "server decoded a different query count");
  run.Attempted(sent);
  run.Failed(degraded + (sent - answered));

  // Request i was due i / kRateA seconds into phase A.
  std::vector<double> due_s(latency.size());
  for (size_t i = 0; i < due_s.size(); ++i) due_s[i] = static_cast<double>(i) / kRateA;
  const double wire_p50 =
      FastWindowP50(latency, due_s, 1.0, static_cast<double>(latency.size()) / kRateA);
  run.EndToEnd("model_bytes", model_bytes, "bytes");
  run.EndToEnd("ops_per_s", FastWindowRate(done_b, 0.5, b_elapsed_s), "1/s");
  run.EndToEnd("latency_p50_us", wire_p50, "us");
  run.EndToEnd("estimate_error", MedianQError(table, pool, expected), "ratio");
  run.Note("wire_serving: ops_per_s = phase B queries/s, latency_p50_us = phase A wire p50 "
           "(faster quarter of 1 s windows; p50 of all requests " +
           std::to_string(Percentile(latency, 50.0)) + " us), "
           "estimate_error = median q-error of the served (untrained) models; phase B wire bytes "
           "in/out per query " +
           std::to_string(static_cast<double>(net_b1.bytes_in - net_b0.bytes_in) / static_cast<double>(answered_b)) +
           "/" +
           std::to_string(static_cast<double>(net_b1.bytes_out - net_b0.bytes_out) / static_cast<double>(answered_b)) +
           ", mean artifact write " + std::to_string(Mean(write_ms)) + " ms");
  run.Note("wire_serving: phase A " + std::to_string(latency.size()) + " batch-1 requests at " +
           std::to_string(kRateA) + " q/s over " + std::to_string(clients) +
           " connections; phase B " + std::to_string(answered_b) + " queries in batch-" +
           std::to_string(kBatchB) + " frames");
  {
    std::string w = "wire_serving: phase B window rates (q/s):";
    for (double v : WindowRates(done_b, 0.5, b_elapsed_s)) w += " " + std::to_string(static_cast<int>(v));
    run.Note(w);
  }
  run.Note("wire_serving: phase A latency p90/p99/max " + std::to_string(Percentile(latency, 90.0)) +
           "/" + std::to_string(Percentile(latency, 99.0)) + "/" +
           std::to_string(Percentile(latency, 100.0)) + " us; generator lateness p50/p99 " +
           std::to_string(Percentile(lateness, 50.0)) + "/" + std::to_string(Percentile(lateness, 99.0)) +
           " us");
  // The program's own latency histograms have 2x buckets; printed next to
  // the exact figures for comparison only.
  const duet::net::NetStats net_final = server.stats();
  const duet::serve::ServingStats eng_final = engine.stats();
  run.Note("program histograms (2x buckets, whole run): NetStats estimate p50/p99 " +
           std::to_string(net_final.estimate.p50_us) + "/" + std::to_string(net_final.estimate.p99_us) +
           " us, ServingStats latency p50/p99 " + std::to_string(eng_final.latency_p50_us) + "/" +
           std::to_string(eng_final.latency_p99_us) + " us; exact phase A p50/p99 " +
           std::to_string(wire_p50) + "/" + std::to_string(Percentile(latency, 99.0)) + " us");
  for (auto& c : conns) c.Close();
  server.Stop();
  if (!run.traced()) return;

  // ---- per-layer probes (traced run only) ----
  run.Layer("tensor.pack_weights_calls", static_cast<double>(serving_packs), "count");
  const double async_a = static_cast<double>(eng_a1.queries - eng_a0.queries);
  BatchingFigures batching;
  batching.queries_per_micro_batch =
      async_a / static_cast<double>(eng_a1.micro_batches - eng_a0.micro_batches);
  batching.fused_share = static_cast<double>(eng_a1.fused_requests - eng_a0.fused_requests) / async_a;
  mopt.seed = seed * 101;
  LayerProbeInputs probe;
  probe.table = &table;
  probe.model = model0.get();
  probe.artifact_path = paths[0];
  probe.model_options = mopt;
  probe.queries = &pool;
  probe.batching = &batching;
  RunLayerProbes(run, probe);
}

}  // namespace perfbench
