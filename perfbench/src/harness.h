// Measurement harness shared by the four benchmark workloads: run
// configuration, exact-sample percentiles, the in-memory span tracer, the
// correctness ledger (attempted / failed / checks) and the one-line JSON
// result the benchmark prints last.
//
// Everything here lives outside the library on purpose: spans are recorded
// around calls into the library's public functions, and latencies are kept
// as exact samples rather than read from the library's 2x-bucket
// ServingStats / NetStats histograms.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (span timestamps, due times).
int64_t NowNs();

/// Microseconds elapsed since `start`.
double MicrosSince(Clock::time_point start);

/// Exact percentile (linear interpolation between closest ranks, the numpy
/// default) of `samples`; `p` in [0, 100]. Sorts a copy.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// Work completed at one moment of a timed phase.
struct Completion {
  double at_s = 0.0;  ///< seconds since the phase began
  double work = 0.0;  ///< units completed (queries, tuples)
};

/// Work per second in each whole `window_s`-second window of a phase that
/// lasted `elapsed_s`.
std::vector<double> WindowRates(const std::vector<Completion>& completions, double window_s,
                                double elapsed_s);
// Timed figures are read from the faster quarter of a run's windows. On a
// shared host, episodes of contention lasting seconds only ever slow a window
// down, while a change to the program moves every window; the faster quarter
// follows the program and leaves most episodes out.

/// Throughput as the upper quartile, over the whole `window_s`-second
/// windows of a phase that lasted `elapsed_s`, of the work completed in each
/// window per second. Falls back to total work / elapsed_s when no window
/// is whole.
double FastWindowRate(const std::vector<Completion>& completions, double window_s,
                      double elapsed_s);

/// Latency as the lower quartile, over the whole `window_s`-second windows
/// of a phase that lasted `elapsed_s`, of each window's exact p50;
/// `at_s[i]` places `samples[i]` in its window. Falls back to the p50 of all
/// samples when no window is whole.
double FastWindowP50(const std::vector<double>& samples, const std::vector<double>& at_s,
                     double window_s, double elapsed_s);

double Mean(const std::vector<double>& samples);

/// Bitwise equality of two doubles (the bitwise-contract checks).
bool SameBits(double a, double b);

/// Thread counts the benchmark pins before any engine starts. All are
/// min(constant, nproc) so one host's runs never depend on what else the
/// library would pick by default (hardware concurrency).
struct ThreadCounts {
  unsigned global_pool = 2;     ///< ThreadPool::SetGlobalThreads
  unsigned engine_workers = 2;  ///< ServingOptions::num_workers
  int server_loops = 1;         ///< NetServerOptions::num_loops
  int client_threads = 2;       ///< loopback connections / submitter threads
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  /// Directory for the run's temporary files (artifacts); removed at exit.
  std::string scratch_dir;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_out";
  ThreadCounts threads;
};

/// One recorded span: a named interval with the span that caused it.
/// `trace` is the id of the outermost span on the recording thread, so the
/// spans of one request (one plan search, one wire request) share it.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Disabled (the untraced run), Span objects cost one
/// branch; enabled, each span takes two clock reads and one locked append.
class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Reserves a span id (taken when a span opens, so children can link to
  /// it before it ends).
  uint64_t NextId();
  /// Appends a finished span.
  void Record(SpanRecord span);

  /// Durations (microseconds) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self time (microseconds) of every span called `name`: duration minus
  /// the part covered by its direct children.
  std::vector<double> SelfTimesUs(const std::string& name) const;
  size_t size() const;

  /// Writes every span as JSON (one object per line inside an array).
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span. Nested spans on one thread record their parent automatically.
class Span {
 public:
  Span(Tracer& tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_ = 0;
  int64_t start_ns_ = 0;
};

/// One run of one workload: configuration, tracer, correctness ledger and
/// metrics. Workloads call EndSetup() when their timed phase begins.
class Run {
 public:
  explicit Run(RunConfig config);

  const RunConfig& config() const { return config_; }
  Tracer& tracer() { return tracer_; }
  bool traced() const { return config_.trace; }

  /// Marks the end of set-up: setup_s is measured from process start.
  void EndSetup();

  /// Records a correctness check; a false `ok` makes the run incorrect.
  /// Returns `ok` so callers can stop early.
  bool Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  /// Operation ledger: `n` operations attempted / failed (a flagged
  /// fallback, shed or deadline-expired answer is a failed operation).
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  /// End-to-end metric (reported by the untraced run).
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (reported by the traced run).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Human-readable note printed before the result line.
  void Note(const std::string& line);

  /// Path of a temporary file inside the run's scratch directory.
  std::string ScratchPath(const std::string& name) const;

  /// Prints host facts, notes and the result line; writes the span file
  /// in traced runs. Returns the process exit code.
  int Finish();

 private:
  struct MetricValue {
    double value = 0.0;
    std::string unit;
  };

  RunConfig config_;
  Tracer tracer_;
  bool correct_ = true;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double setup_s_ = -1.0;
  std::vector<std::pair<std::string, MetricValue>> end_to_end_;
  std::vector<std::pair<std::string, MetricValue>> layers_;
  std::vector<std::string> notes_;
};

/// Peak resident set size of this process, MiB (getrusage).
double PeakRssMiB();

/// The host facts every run prints: nproc, CPU affinity, active SIMD tier,
/// build type, commit, thread counts and seed (a JSON object).
std::string HostFactsJson(const RunConfig& config);

/// Size of a file in bytes (0 if missing).
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
