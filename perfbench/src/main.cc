// duet_perfbench: one workload of the repository benchmark per process.
//
//   duet_perfbench --workload <train_estimate|plan_search|wire_serving|zoo_churn>
//                  --seed N --seconds S --trace 0|1
//                  [--commit ID] [--scratch DIR] [--out DIR]
//
// The last line of standard output is the JSON result. perfbench/run.py
// builds this binary and forwards its arguments.
#include <cstdio>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "harness.h"
#include "reference.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "duet_perfbench: %s\nusage: duet_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--scratch DIR] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return Usage(("unexpected argument " + key).c_str());
    }
  }

  static const std::map<std::string, void (*)(Run&)> kWorkloads = {
      {"train_estimate", RunTrainEstimate},
      {"plan_search", RunPlanSearch},
      {"wire_serving", RunWireServing},
      {"zoo_churn", RunZooChurn}};
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.count(required)) return Usage((std::string("missing --") + required).c_str());
  }
  const auto workload = kWorkloads.find(args["workload"]);
  if (workload == kWorkloads.end()) return Usage("unknown workload");

  RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  config.trace = args["trace"] == "1";
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");
  if (args.count("commit")) config.commit = args["commit"];
  if (args.count("out")) config.out_dir = args["out"];
  config.scratch_dir = args.count("scratch")
                           ? args["scratch"]
                           : ".bench_run/" + config.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(config.scratch_dir);

  // Pin every thread count before any pool or engine exists. Sizing the
  // global pool here also constructs it on this one thread, before engine
  // workers could reach ThreadPool::Global() concurrently.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  config.threads.global_pool = std::min(config.threads.global_pool, nproc);
  // zoo_churn is one caller issuing synchronous keyed batches: with one
  // worker the engine runs each batch on the calling thread, so the figure is
  // the zoo's load/validate/evict path rather than two cross-thread wake-ups
  // per call, which a busy host slowed threefold for a minute at a time
  // (README.md, "What every run pins and prints").
  if (config.workload == "zoo_churn") config.threads.engine_workers = 1;
  config.threads.engine_workers = std::min(config.threads.engine_workers, nproc);
  config.threads.client_threads =
      std::min(config.threads.client_threads, static_cast<int>(nproc));
  duet::ThreadPool::SetGlobalThreads(config.threads.global_pool);

  int code = 0;
  {
    Run run(config);
    for (const std::string& f : RunReferenceSelfTest()) run.Check(false, "reference self-test: " + f);
    workload->second(run);
    code = run.Finish();
  }
  std::error_code ec;
  std::filesystem::remove_all(config.scratch_dir, ec);
  return code;
}
