#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "tensor/simd_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Taken during static initialisation, before main(): set-up time counts
// from here, so everything the process does before its timed phase shows.
const Clock::time_point kProcessStart = Clock::now();

thread_local std::vector<std::pair<uint64_t, uint64_t>> t_open_spans;  // (id, trace)

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string AffinityString() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  int run_start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in && run_start < 0) run_start = cpu;
    if (!in && run_start >= 0) {
      if (!out.empty()) out += ",";
      out += std::to_string(run_start);
      if (cpu - 1 > run_start) out += "-" + std::to_string(cpu - 1);
      run_start = -1;
    }
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

std::vector<double> WindowRates(const std::vector<Completion>& completions, double window_s,
                                double elapsed_s) {
  const int64_t whole = static_cast<int64_t>(std::floor(elapsed_s / window_s));
  std::vector<double> per_window(static_cast<size_t>(std::max<int64_t>(whole, 0)), 0.0);
  for (const Completion& c : completions) {
    const int64_t w = static_cast<int64_t>(std::floor(c.at_s / window_s));
    if (w >= 0 && w < whole) per_window[static_cast<size_t>(w)] += c.work;
  }
  for (double& w : per_window) w /= window_s;
  return per_window;
}

double FastWindowRate(const std::vector<Completion>& completions, double window_s,
                      double elapsed_s) {
  const std::vector<double> per_window = WindowRates(completions, window_s, elapsed_s);
  if (!per_window.empty()) return Percentile(per_window, 75.0);
  double total = 0.0;
  for (const Completion& c : completions) total += c.work;
  return total / elapsed_s;
}

double FastWindowP50(const std::vector<double>& samples, const std::vector<double>& at_s,
                     double window_s, double elapsed_s) {
  const int64_t whole = static_cast<int64_t>(std::floor(elapsed_s / window_s));
  std::vector<std::vector<double>> windows(static_cast<size_t>(std::max<int64_t>(whole, 0)));
  for (size_t i = 0; i < samples.size(); ++i) {
    const int64_t w = static_cast<int64_t>(std::floor(at_s[i] / window_s));
    if (w >= 0 && w < whole) windows[static_cast<size_t>(w)].push_back(samples[i]);
  }
  std::vector<double> p50s;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) p50s.push_back(Median(w));
  }
  return p50s.empty() ? Median(samples) : Percentile(p50s, 25.0);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

// ----- tracer -----

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    const auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0.0 : it->second;
    out.push_back((static_cast<double>(s.end_ns - s.start_ns) - children) / 1e3);
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path, const std::string& header_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"host\": " << header_json << ",\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
        << ",\"name\":\"" << JsonEscape(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer& tracer, const char* name) : tracer_(tracer), name_(name) {
  if (!tracer_.enabled()) return;
  if (!t_open_spans.empty()) {
    parent_ = t_open_spans.back().first;
    trace_ = t_open_spans.back().second;
  }
  id_ = tracer_.NextId();
  t_open_spans.emplace_back(id_, trace_ == 0 ? id_ : trace_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end_ns = NowNs();
  t_open_spans.pop_back();
  tracer_.Record(SpanRecord{id_, parent_, trace_ == 0 ? id_ : trace_, name_, start_ns_, end_ns});
}

// ----- run -----

Run::Run(RunConfig config) : config_(std::move(config)) { tracer_.Enable(config_.trace); }

void Run::EndSetup() {
  setup_s_ = std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

bool Run::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

void Run::EndToEnd(const std::string& name, double value, const std::string& unit) {
  end_to_end_.push_back({name, MetricValue{value, unit}});
}

void Run::Layer(const std::string& name, double value, const std::string& unit) {
  layers_.push_back({name, MetricValue{value, unit}});
}

void Run::Note(const std::string& line) { notes_.push_back(line); }

std::string Run::ScratchPath(const std::string& name) const {
  return (std::filesystem::path(config_.scratch_dir) / name).string();
}

int Run::Finish() {
  const std::string host = HostFactsJson(config_);
  if (setup_s_ < 0.0) Check(false, "workload never ended its set-up");
  if (attempted_ == 0) Check(false, "no operation attempted");
  end_to_end_.insert(end_to_end_.begin(), {"setup_s", MetricValue{setup_s_, "s"}});
  end_to_end_.push_back({"peak_rss_mb", MetricValue{PeakRssMiB(), "MiB"}});
  const std::vector<std::pair<std::string, MetricValue>>& metrics =
      config_.trace ? layers_ : end_to_end_;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) Check(false, "metric " + name + " is not finite");
  }
  if (config_.trace) {
    std::filesystem::create_directories(config_.out_dir);
    const std::string path = config_.out_dir + "/trace-" + config_.workload + "-seed" +
                             std::to_string(config_.seed) + ".json";
    if (!tracer_.WriteJson(path, host)) Check(false, "could not write span file " + path);
    notes_.push_back("traced run: " + std::to_string(tracer_.size()) + " spans written to " +
                     path);
    // The traced run's own end-to-end figures, for the tracing-overhead
    // comparison against untraced runs (not part of the result line).
    for (const auto& [name, m] : end_to_end_) {
      notes_.push_back("traced end_to_end " + name + " = " + FormatNumber(m.value) + " " +
                       m.unit);
    }
  }

  std::printf("# host %s\n", host.c_str());
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const std::string& f : failures_) std::printf("# CHECK FAILED: %s\n", f.c_str());
  std::ostringstream line;
  line << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    line << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": {\"value\": "
         << (std::isfinite(m.value) ? FormatNumber(m.value) : "0") << ", \"unit\": \""
         << JsonEscape(m.unit) << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string HostFactsJson(const RunConfig& config) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"affinity\": \""
      << AffinityString() << "\", \"isa\": \"" << duet::tensor::simd::ActiveIsaName()
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
      << JsonEscape(config.commit) << "\", \"workload\": \"" << config.workload
      << "\", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"threads\": {\"global_pool\": " << config.threads.global_pool
      << ", \"engine_workers\": " << config.threads.engine_workers
      << ", \"server_loops\": " << config.threads.server_loops
      << ", \"client_threads\": " << config.threads.client_threads << "}}";
  return out.str();
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

}  // namespace perfbench
